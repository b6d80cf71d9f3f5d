package replica

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"metacomm/internal/directory"
)

// maxFramePayload mirrors the directory codec's per-frame payload limit:
// no input may make the stream reader allocate more than this.
const maxFramePayload = 64 << 20

// streamFrame encodes one stream record.
func streamFrame(t testing.TB, rec directory.UpdateRecord) []byte {
	t.Helper()
	var enc directory.FrameEncoder
	b, err := enc.Append(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// streamSeeds is one publisher->consumer stream of every shape the reader
// must handle, well-formed and not.
func streamSeeds(t testing.TB) map[string][]byte {
	org := directory.AttrsFrom(map[string][]string{"objectClass": {"organization"}, "o": {"Lucent"}})
	pat := directory.AttrsFrom(map[string][]string{"objectClass": {"person"}, "cn": {"Pat"}})
	entry := func(name string, a *directory.Attrs, seq uint64) []byte {
		return streamFrame(t, directory.UpdateRecord{Seq: seq, Op: opEntry, DN: name, Attrs: a,
			OriginSeq: seq, OriginNode: 1})
	}
	del := func(name string, seq uint64) []byte {
		return streamFrame(t, directory.UpdateRecord{Seq: seq, Op: opDelete, DN: name,
			OriginSeq: seq, OriginNode: 1})
	}
	ctl := func(tag byte, x, y uint64) []byte { return appendControl(nil, tag, x, y) }

	resume := cat(ctl(msgResume, 0, 0),
		ctl(msgChange, 1, 1), entry("o=Lucent", org, 1),
		ctl(msgChange, 2, 1), entry("cn=Pat,o=Lucent", pat, 2),
		ctl(msgChange, 3, 2), del("cn=Pat,o=Lucent", 3), entry("cn=Pat2,o=Lucent", pat, 3))
	snapshot := cat(ctl(msgSnapshotBegin, 7, 0),
		entry("o=Lucent", org, 1), entry("cn=Pat,o=Lucent", pat, 2), del("cn=gone,o=lucent", 5),
		ctl(msgSnapshotEnd, 7, 2),
		ctl(msgChange, 8, 1), del("cn=Pat,o=Lucent", 8))
	modify := streamFrame(t, directory.UpdateRecord{Seq: 4, Op: "modify", DN: "cn=Pat,o=Lucent",
		Changes:   []directory.UpdateChange{{Op: "replace", Attr: "cn", Values: []string{"P"}}},
		OriginSeq: 4, OriginNode: 1})
	wrongMarker := entry("o=Lucent", org, 1)
	wrongMarker[0] ^= 0x01
	declared := func(n uint64) []byte { return binary.AppendUvarint([]byte{0xB2}, n) }

	return map[string][]byte{
		"resume":         resume,
		"snapshot":       snapshot,
		"truncated":      resume[:len(resume)-1],
		"wrong-marker":   cat(ctl(msgResume, 0, 0), ctl(msgChange, 1, 1), wrongMarker),
		"oversized":      cat(ctl(msgResume, 0, 0), ctl(msgChange, 1, 1), declared(1<<40)),
		"short-large":    cat(ctl(msgResume, 0, 0), ctl(msgChange, 1, 1), declared(60<<20)),
		"unknown-tag":    cat(ctl(msgResume, 0, 0), []byte{0x7f, 1, 1}),
		"json":           []byte(`{"type":"resume","seq":0}` + "\n"),
		"modify-record":  cat(ctl(msgResume, 0, 0), ctl(msgChange, 4, 1), modify),
		"count-mismatch": cat(ctl(msgSnapshotBegin, 1, 0), entry("o=Lucent", org, 1), ctl(msgSnapshotEnd, 1, 5)),
		"huge-group":     cat(ctl(msgResume, 0, 0), ctl(msgChange, 1, 1<<62)),
	}
}

// consumeBytes runs one consumer stream over data into a fresh tree.
func consumeBytes(data []byte) (*link, error) {
	l := newLink("", 0, directory.New(nil), nil, nil)
	return l, l.consume(bufio.NewReader(bytes.NewReader(data)))
}

// FuzzReplicationStream throws arbitrary bytes at the consumer's stream
// reader: control messages plus journal v2 frames. Whatever a peer sends,
// the reader must never panic, must end every finite stream with an error
// (a well-formed stream ends in EOF, which still ends the session), and
// must never allocate more than one frame's payload limit on the strength
// of a declared length.
func FuzzReplicationStream(f *testing.F) {
	seeds := streamSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := consumeBytes(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("finite stream consumed without an error")
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFramePayload {
			t.Fatalf("reading %d bytes allocated %d bytes", len(data), grew)
		}
	})
}

// TestStreamReaderRefusesOffProtocolInput: every malformed seed ends the
// session with a protocol error before anything is applied past the bad
// point, and the well-formed seeds apply completely, ending only at EOF.
func TestStreamReaderRefusesOffProtocolInput(t *testing.T) {
	seeds := streamSeeds(t)
	for _, name := range []string{"resume", "snapshot"} {
		l, err := consumeBytes(seeds[name])
		if !errors.Is(err, io.EOF) {
			t.Errorf("%s: stream ended with %v, want EOF", name, err)
		}
		if l.applied.Load() == 0 || l.structural.Load() != 0 {
			t.Errorf("%s: applied %d, structural %d", name, l.applied.Load(), l.structural.Load())
		}
	}
	if l, _ := consumeBytes(seeds["resume"]); l.cursor.Load() != 3 {
		t.Errorf("resume: cursor %d after the last group, want 3", l.cursor.Load())
	}
	for name, want := range map[string]string{
		"wrong-marker":   "not a journal v2 frame marker",
		"oversized":      "exceeds limit",
		"unknown-tag":    "unexpected message tag 0x7f",
		"json":           "unexpected message tag 0x7b",
		"modify-record":  `unexpected "modify" record`,
		"count-mismatch": "snapshot-end counts 5 entries, stream carried 1",
		"truncated":      "unexpected EOF",
		"short-large":    "unexpected EOF",
	} {
		l, err := consumeBytes(seeds[name])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
		if name != "truncated" && name != "count-mismatch" && l.cursor.Load() != 0 {
			t.Errorf("%s: cursor advanced to %d past a refused group", name, l.cursor.Load())
		}
		if name == "truncated" && l.cursor.Load() != 2 {
			t.Errorf("truncated: cursor %d, want 2 (the torn group is never acknowledged)", l.cursor.Load())
		}
	}
}

// TestWriteReplicationFuzzSeedCorpus regenerates the checked-in seed corpus
// under testdata/fuzz/FuzzReplicationStream. Skipped unless
// WRITE_FUZZ_CORPUS is set; run it after changing the stream format.
func TestWriteReplicationFuzzSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReplicationStream")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range streamSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
