package directory

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// v2TestRecords is one record of every op shape the journal can carry.
func v2TestRecords() []UpdateRecord {
	return []UpdateRecord{
		{Op: "add", Seq: 1, DN: "cn=A,o=Lucent", Attrs: AttrsFrom(map[string][]string{
			"objectClass": {"person"}, "cn": {"A"}, "telephoneNumber": {"555-0001", "555-0002"}})},
		{Op: "entry", Seq: 42, DN: "o=Lucent", normKey: "o=lucent", Attrs: AttrsFrom(map[string][]string{
			"objectClass": {"organization"}})},
		{Op: "delete", Seq: 7, DN: "cn=B,o=Lucent"},
		{Op: "modify", Seq: 9, DN: "cn=A,o=Lucent", Changes: []UpdateChange{
			{Op: "add", Attr: "mail", Values: []string{"a@x"}},
			{Op: "delete", Attr: "roomNumber"},
			{Op: "replace", Attr: "cn", Values: []string{"A", "Alice"}}}},
		{Op: "modifydn", Seq: 11, DN: "cn=A,o=Lucent", NewRDN: "cn=Alice", DeleteOldRDN: true},
		{Op: "add", Seq: 1 << 40, DN: "", Attrs: NewAttrs()},
	}
}

// sameRecord compares a decoded record against the original.
func sameRecord(t *testing.T, want, got *UpdateRecord) {
	t.Helper()
	if got.Op != want.Op || got.Seq != want.Seq || got.DN != want.DN ||
		got.normKey != want.normKey ||
		got.NewRDN != want.NewRDN || got.DeleteOldRDN != want.DeleteOldRDN {
		t.Fatalf("decoded header differs:\n%+v\nvs\n%+v", got, want)
	}
	if !reflect.DeepEqual(got.Changes, want.Changes) {
		t.Fatalf("decoded changes differ:\n%+v\nvs\n%+v", got.Changes, want.Changes)
	}
	if want.Op == "add" || want.Op == "entry" {
		if !got.Attrs.Equal(want.Attrs) {
			t.Fatalf("decoded attrs of %s differ:\n%v\nvs\n%v",
				want.DN, got.Attrs.Map(), want.Attrs.Map())
		}
	}
}

func TestV2RecordRoundTrip(t *testing.T) {
	var enc FrameEncoder
	var buf []byte
	recs := v2TestRecords()
	for i := range recs {
		var err error
		buf, err = enc.Append(buf, &recs[i])
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	var dec FrameDecoder
	total := 0
	for i := range recs {
		var got UpdateRecord
		n, err := dec.readFrame(r, &got)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		total += n
		sameRecord(t, &recs[i], &got)
	}
	if total != len(buf) {
		t.Fatalf("frames consumed %d bytes of %d", total, len(buf))
	}
	if _, err := r.ReadByte(); err == nil {
		t.Fatal("trailing bytes after last frame")
	}
}

// TestV2CorruptFrameRejected flips every single byte of an encoded frame in
// turn and requires decode to fail each time — the CRC (or the frame
// structure around it) must catch any one-byte corruption.
func TestV2CorruptFrameRejected(t *testing.T) {
	var enc FrameEncoder
	rec := v2TestRecords()[0]
	frame, err := enc.Append(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		var got UpdateRecord
		var dec FrameDecoder
		_, derr := dec.readFrame(bufio.NewReader(bytes.NewReader(mut)), &got)
		if derr == nil && mut[0] == frameMarkerV2 {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestV2JournalOnDisk asserts a journal set writes v2 frames and reports
// its replay through JournalStats.
func TestV2JournalOnDisk(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 4)
	seedOrg(t, d, 32)
	d.CloseJournal()
	for i := 0; i < 4; i++ {
		b, err := os.ReadFile(segJournalPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 && b[0] != frameMarkerV2 {
			t.Fatalf("segment %d does not start with the v2 marker: %x", i, b[0])
		}
	}
	restored := reopenSet(t, base, 4)
	sameState(t, d, restored)
	st := restored.JournalStats()
	if st.ReplayedRecords != 33 || st.ReplayedBytes == 0 ||
		st.ReplayNs <= 0 || len(st.SegmentReplayNs) != 4 {
		t.Fatalf("replay stats = %+v", st)
	}
}

// TestV2TornTailTolerated cuts the final frame short at several lengths —
// every prefix of a frame is a possible crash shape — and requires replay to
// truncate the tear, count it, and keep every complete record.
func TestV2TornTailTolerated(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 1)
	seedOrg(t, d, 10)
	d.CloseJournal()

	seg0 := segJournalPath(base, 0)
	whole, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	// Encode one more frame and append only part of it.
	var enc FrameEncoder
	extra, err := enc.Append(nil, &UpdateRecord{Op: "add", Seq: 999,
		DN: "cn=torn,o=Lucent", Attrs: AttrsFrom(map[string][]string{"cn": {"torn"}})})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 2, len(extra) / 2, len(extra) - 1} {
		if err := os.WriteFile(seg0, append(append([]byte(nil), whole...), extra[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		restored := reopenSet(t, base, 1)
		sameState(t, d, restored)
		if got := restored.JournalStats().TornTails; got != 1 {
			t.Fatalf("cut %d: TornTails = %d, want 1", cut, got)
		}
		// The tear is physically gone: appends resume at a record boundary.
		mustAddP(t, restored, "cn=after,o=Lucent", map[string][]string{"cn": {"after"}})
		restored.CloseJournal()
		again := reopenSet(t, base, 1)
		if _, err := again.Get(dn.MustParse("cn=after,o=Lucent")); err != nil {
			t.Fatalf("cut %d: append after tear lost: %v", cut, err)
		}
		again.CloseJournal()
		if err := os.WriteFile(seg0, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// v2Frames splits a v2 journal file into individual frames.
func v2Frames(t *testing.T, b []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for off := 0; off < len(b); {
		if b[off] != frameMarkerV2 {
			t.Fatalf("offset %d: not a frame marker: %x", off, b[off])
		}
		plen, vn := binary.Uvarint(b[off+1:])
		end := off + 1 + vn + int(plen) + 4
		if vn <= 0 || end > len(b) {
			t.Fatalf("offset %d: bad frame", off)
		}
		frames = append(frames, b[off:end])
		off = end
	}
	return frames
}

// TestV2CorruptMidFileSurfaces damages a complete frame — mid-file and at
// the tail — and requires attach to fail loudly rather than silently
// truncate: a complete frame with a bad checksum is corruption, not a tear.
func TestV2CorruptMidFileSurfaces(t *testing.T) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 1)
	seedOrg(t, d, 10)
	d.CloseJournal()

	seg0 := segJournalPath(base, 0)
	whole, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	frames := v2Frames(t, whole)
	if len(frames) < 3 {
		t.Fatalf("only %d frames", len(frames))
	}
	for _, fi := range []int{1, len(frames) - 1} {
		mut := append([]byte(nil), whole...)
		// Flip a payload byte of frame fi (skip marker + length prefix).
		off := 0
		for i := 0; i < fi; i++ {
			off += len(frames[i])
		}
		_, vn := binary.Uvarint(mut[off+1:])
		mut[off+1+vn] ^= 0x40
		if err := os.WriteFile(seg0, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		bad := NewSegmented(nil, 1)
		if _, err := bad.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup}); err == nil {
			bad.CloseJournal()
			t.Fatalf("corrupt frame %d of %d replayed without error", fi, len(frames))
		}
		after, err := os.ReadFile(seg0)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(mut) {
			t.Fatalf("corrupt journal was truncated: %d -> %d bytes", len(mut), len(after))
		}
		if err := os.WriteFile(seg0, whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// migrationCrash kills the segment-count re-fold (a set written with 2
// segments attached with 4) at the given stage of segment seg's compaction
// and asserts the next attach still restores every acked write and
// removes the temps — the re-fold must be re-runnable from any crash
// point, and the recovered set must end up in the 4-segment layout.
func migrationCrash(t *testing.T, stage string, seg int) {
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 2)
	seedOrg(t, d, 20)
	// History beyond plain adds: a value added, an entry deleted, a
	// subtree renamed — replay must land on the same state whichever of a
	// file's history and its entries' snapshots comes first.
	if err := d.Modify(dn.MustParse("cn=p1,o=Lucent"), []ldap.Change{
		{Op: ldap.ModAdd, Attribute: ldap.Attribute{Type: "mail", Values: []string{"p1@x"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(dn.MustParse("cn=p2,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	mustAddP(t, d, "ou=Eng,o=Lucent", map[string][]string{"ou": {"Eng"}})
	mustAddP(t, d, "cn=dev,ou=Eng,o=Lucent", map[string][]string{"cn": {"dev"}})
	if err := d.ModifyDN(dn.MustParse("ou=Eng,o=Lucent"), dn.RDN{{Attr: "ou", Value: "R&D"}}, true); err != nil {
		t.Fatal(err)
	}
	d.CloseJournal()

	injected := false
	compactHook = func(s string, i int) error {
		if s == stage && i == seg && !injected {
			injected = true
			return fmt.Errorf("injected crash at %s", s)
		}
		return nil
	}
	crashed := NewSegmented(nil, 4)
	_, err := crashed.AttachJournalSet(JournalSetConfig{Base: base, Mode: SyncGroup})
	compactHook = nil
	if err == nil {
		t.Fatal("migrating attach did not surface the injected crash")
	}
	if !injected {
		t.Fatal("hook never fired")
	}
	crashed.CloseJournal()

	restored := reopenSet(t, base, 4)
	sameState(t, d, restored)
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(segJournalPath(base, i) + ".compact"); err == nil {
			t.Errorf("stale .compact temp for segment %d survived attach", i)
		}
	}
	// The completed re-fold leaves a 4-segment set: the manifest says so
	// and every file holds only its own segment's entries.
	mustAddP(t, restored, "cn=post,o=Lucent", map[string][]string{"cn": {"post"}})
	restored.CloseJournal()
	mb, err := os.ReadFile(base + ".meta")
	if err != nil {
		t.Fatal(err)
	}
	var m journalManifest
	if err := json.Unmarshal(mb, &m); err != nil || m.Segments != 4 {
		t.Fatalf("manifest after recovered re-fold: %s (%v)", mb, err)
	}
	for i := 0; i < 4; i++ {
		probe := NewSegmented(nil, 4)
		n, _, _, _, err := probe.replayRelaxed(segJournalPath(base, i))
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && probe.Stats().SegmentEntries[i] != probe.Len() {
			t.Errorf("segment file %d holds entries of other segments: %v", i, probe.Stats().SegmentEntries)
		}
	}
	final := reopenSet(t, base, 4)
	if _, err := final.Get(dn.MustParse("cn=post,o=Lucent")); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationCrashAtTmpWritten(t *testing.T) { migrationCrash(t, "tmp-written", 0) }
func TestMigrationCrashMidSplice(t *testing.T)    { migrationCrash(t, "mid-splice", 0) }
func TestMigrationCrashPreRename(t *testing.T)    { migrationCrash(t, "pre-rename", 0) }

// TestMigrationCrashAfterFirstRename crashes the re-fold once segment 0's
// file has already been replaced, so entries that file held for other
// segments survive only if the re-fold made them durable elsewhere first.
func TestMigrationCrashAfterFirstRename(t *testing.T) { migrationCrash(t, "pre-rename", 1) }

// TestParallelAttachReplay exercises the worker-pool attach (the -race run
// of this package drives the concurrent path) and checks the post-pass
// rebuilt cross-segment child links. The pool is min(GOMAXPROCS, segments),
// so the test pins GOMAXPROCS to get four workers on any machine.
func TestParallelAttachReplay(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := filepath.Join(t.TempDir(), "dir.journal")
	d := segmentedDIT(t, base, 8)
	seedOrg(t, d, 120)
	mustAddP(t, d, "ou=Eng,o=Lucent", map[string][]string{"ou": {"Eng"}})
	for i := 0; i < 40; i++ {
		mustAddP(t, d, fmt.Sprintf("cn=e%d,ou=Eng,o=Lucent", i),
			map[string][]string{"cn": {fmt.Sprintf("e%d", i)}})
	}
	if err := d.Delete(dn.MustParse("cn=p7,o=Lucent")); err != nil {
		t.Fatal(err)
	}
	d.CloseJournal()

	restored := reopenSet(t, base, 8)
	sameState(t, d, restored)
	st := restored.JournalStats()
	if st.ReplayWorkers != 4 {
		t.Fatalf("ReplayWorkers = %d, want 4", st.ReplayWorkers)
	}
	if len(st.SegmentReplayNs) != 8 {
		t.Fatalf("SegmentReplayNs has %d entries, want 8", len(st.SegmentReplayNs))
	}
	// Child links must be rebuilt: a populated subtree refuses deletion.
	if err := restored.Delete(dn.MustParse("ou=Eng,o=Lucent")); err == nil {
		t.Fatal("deleted non-leaf after parallel replay: children links missing")
	}
	// Indexes built after a parallel attach reuse the pool (enableIndexes
	// worker path) and must serve exact results.
	restored.EnableIndexes("telephoneNumber")
	got, err := restored.Search(dn.MustParse("o=Lucent"), ldap.ScopeWholeSubtree,
		&ldap.Filter{Kind: ldap.FilterEquality, Attr: "telephoneNumber", Value: "555-0005"}, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("indexed search after parallel attach: %v, %d results", err, len(got))
	}
}

// TestParentNormKey pins the zero-allocation parent-key derivation used by
// the child-wiring post-pass against the definitional form, across escaped
// commas, escaped backslashes, multi-AVA RDNs, and depth-1/root names.
func TestParentNormKey(t *testing.T) {
	for _, raw := range []string{
		"o=Lucent",
		"cn=A,o=Lucent",
		"cn=u0000001,ou=R&D,o=Lucent",
		`cn=Doe\, John,o=Lucent`,
		`cn=back\\slash,ou=x\,y,o=Lucent`,
		"cn=A+sn=B,ou=Mixed+l=NJ,o=Lucent",
		`cn=\,lead,o=Lucent`,
		`cn=trail\\,o=Lucent`,
	} {
		name, err := dn.Parse(raw)
		if err != nil {
			t.Fatalf("parse %q: %v", raw, err)
		}
		key := name.Normalize()
		want := name.Parent().Normalize()
		if got := parentNormKey(key); got != want {
			t.Errorf("parentNormKey(%q) = %q, want %q", key, got, want)
		}
	}
	if got := parentNormKey(""); got != "" {
		t.Errorf("parentNormKey of root = %q, want empty", got)
	}
}
