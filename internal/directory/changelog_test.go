package directory

import (
	"path/filepath"
	"testing"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// TestChangelogRecordsCarryImages pins the contract changelog consumers
// rely on: every non-delete record emitted on the changelog carries the
// image its update left behind (the installed image for add and entry,
// the post-image for modify and modifydn), equal to the tree's state right
// after the commit — on the unjournaled path and through the journaled
// group committer alike. The replication publisher and the gateway's
// before-image cache read this image and never the live tree.
func TestChangelogRecordsCarryImages(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		d := New(nil)
		d.SetNodeID(1)
		if journaled {
			if _, err := d.AttachJournalSet(JournalSetConfig{
				Base: filepath.Join(t.TempDir(), "j"), Mode: SyncGroup}); err != nil {
				t.Fatal(err)
			}
		}
		_, changes, cancel := d.SnapshotAndSubscribe(64)

		// expect drains the next record and checks its image against the
		// entry at want (deletes carry none).
		expect := func(op, want string) {
			t.Helper()
			rec := <-changes
			if rec.Op != op {
				t.Fatalf("journaled=%v: record op %q, want %q", journaled, rec.Op, op)
			}
			if op == "delete" {
				if rec.Attrs != nil {
					t.Fatalf("journaled=%v: delete record carries an image", journaled)
				}
				return
			}
			if rec.Attrs == nil {
				t.Fatalf("journaled=%v: %s record for %s carries no image", journaled, op, rec.DN)
			}
			e, err := d.Get(dn.MustParse(want))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Attrs.Equal(e.Attrs) {
				t.Fatalf("journaled=%v: %s image %v, tree holds %v", journaled, op, rec.Attrs.Map(), e.Attrs.Map())
			}
		}

		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(d.Add(dn.MustParse("o=Lucent"), org("Lucent")))
		expect("add", "o=Lucent")
		must(d.Add(dn.MustParse("cn=A,o=Lucent"), person("A")))
		expect("add", "cn=A,o=Lucent")
		must(d.Modify(dn.MustParse("cn=A,o=Lucent"), []ldap.Change{{Op: ldap.ModAdd,
			Attribute: ldap.Attribute{Type: "description", Values: []string{"x"}}}}))
		expect("modify", "cn=A,o=Lucent")
		must(d.ModifyDN(dn.MustParse("cn=A,o=Lucent"), dn.MustParse("cn=B").RDN(), true))
		expect("modifydn", "cn=B,o=Lucent")
		_, err := d.ApplyRemote(dn.MustParse("cn=C,o=Lucent"), person("C"), Stamp{Seq: 100, Node: 2}, false)
		must(err)
		expect("entry", "cn=C,o=Lucent")
		_, err = d.ApplyRemote(dn.MustParse("cn=C,o=Lucent"), person("C2"), Stamp{Seq: 101, Node: 2}, false)
		must(err)
		expect("entry", "cn=C,o=Lucent")
		must(d.Delete(dn.MustParse("cn=B,o=Lucent")))
		expect("delete", "")
		_, err = d.ApplyRemote(dn.MustParse("cn=C,o=Lucent"), nil, Stamp{Seq: 102, Node: 2}, true)
		must(err)
		expect("delete", "")

		cancel()
		if journaled {
			must(d.CloseJournal())
		}
	}
}
