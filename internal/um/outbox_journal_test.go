package um

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metacomm/internal/lexpress"
)

func outboxLine(t *testing.T, rec outboxRecord) []byte {
	t.Helper()
	b, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func updateRec(seq uint64, dnStr string) outboxRecord {
	return outboxRecord{Kind: "u", Seq: seq, DN: dnStr,
		TU: &lexpress.TargetUpdate{Target: "pbx", Op: lexpress.OpModify, Key: dnStr}}
}

// TestOutboxJournalDamagedLineFailsOpen: a complete line that does not
// parse is damage, not a crash tear. Opening must fail naming the file and
// leave it byte-identical, rather than stop at the bad line and let the
// open-time compaction drop every later record.
func TestOutboxJournalDamagedLineFailsOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pbx.outbox")
	var content []byte
	content = append(content, outboxLine(t, updateRec(1, "cn=a,o=Lucent"))...)
	content = append(content, "{\"k\":\"u\",\"seq\":2,garbage\n"...)
	content = append(content, outboxLine(t, updateRec(3, "cn=b,o=Lucent"))...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, backlog, _, err := openOutboxJournal(dir, "pbx")
	if err == nil {
		j.close()
		t.Fatalf("open succeeded past a damaged line; backlog %d records", len(backlog))
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the journal file", err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !bytes.Equal(after, content) {
		t.Fatalf("damaged journal was rewritten:\n%s\nwant\n%s", after, content)
	}
}

// TestOutboxJournalTornTailDropped: an unterminated final line is the
// shape a crash mid-append leaves; it is dropped and everything before it
// survives.
func TestOutboxJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pbx.outbox")
	var content []byte
	content = append(content, outboxLine(t, updateRec(1, "cn=a,o=Lucent"))...)
	content = append(content, outboxLine(t, outboxRecord{Kind: "a", Seq: 1})...)
	content = append(content, outboxLine(t, updateRec(2, "cn=b,o=Lucent"))...)
	torn := outboxLine(t, updateRec(3, "cn=c,o=Lucent"))
	content = append(content, torn[:len(torn)/2]...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	j, backlog, maxSeq, err := openOutboxJournal(dir, "pbx")
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(backlog) != 1 || backlog[0].Seq != 2 || maxSeq != 2 {
		t.Fatalf("backlog %+v maxSeq %d, want only seq 2", backlog, maxSeq)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := outboxLine(t, updateRec(2, "cn=b,o=Lucent")); !bytes.Equal(after, want) {
		t.Fatalf("compacted journal:\n%s\nwant\n%s", after, want)
	}
}
