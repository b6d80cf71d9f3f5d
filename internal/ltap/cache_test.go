package ltap

import (
	"fmt"
	"testing"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
)

// applyAction services trapped events against the DIT, standing in for the
// Update Manager's write-back (LTAP itself never applies updates).
func applyAction(d *directory.DIT) ActionFunc {
	return func(ev Event) ldap.Result {
		name, err := dn.Parse(ev.DN)
		if err != nil {
			return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: err.Error()}
		}
		switch ev.Kind {
		case EventAdd:
			err = d.Add(name, directory.AttrsFrom(ev.Attrs))
		case EventDelete:
			err = d.Delete(name)
		case EventModify:
			changes := make([]ldap.Change, 0, len(ev.Changes))
			for _, c := range ev.Changes {
				lc, cerr := c.ToLDAP()
				if cerr != nil {
					return ldap.Result{Code: ldap.ResultProtocolError, Message: cerr.Error()}
				}
				changes = append(changes, lc)
			}
			err = d.Modify(name, changes)
		case EventModifyDN:
			newRDN, perr := dn.Parse(ev.NewRDN)
			if perr != nil || newRDN.Depth() != 1 {
				return ldap.Result{Code: ldap.ResultInvalidDNSyntax, Message: "bad newRDN"}
			}
			err = d.ModifyDN(name, newRDN.RDN(), ev.DeleteOldRDN)
		}
		if err != nil {
			return resultFromErr(err)
		}
		return ldap.Result{Code: ldap.ResultSuccess}
	}
}

func replaceReq(name, attr, value string) *ldap.ModifyRequest {
	return &ldap.ModifyRequest{DN: name, Changes: []ldap.Change{{
		Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: attr, Values: []string{value}}}}}
}

func TestCacheWithChangelogServesWarmBeforeImages(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	applier := applyAction(d)
	g := NewGateway(&LocalBackend{DIT: d}, ActionFunc(func(ev Event) ldap.Result {
		action.OnUpdate(ev)
		return applier(ev)
	}))
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()
	g.UseCache(cache)

	conn := &ldapserver.Conn{}
	const name = "cn=John Doe,o=Lucent"
	for i := 1; i <= 5; i++ {
		if res := g.Modify(conn, replaceReq(name, "roomNumber", fmt.Sprintf("2C-%03d", i))); res.Code != ldap.ResultSuccess {
			t.Fatalf("modify %d: %+v", i, res)
		}
	}
	evs := action.all()
	if len(evs) != 5 {
		t.Fatalf("events = %d", len(evs))
	}
	// Each trap's before-image reflects the previous committed write: the
	// cache followed the changelog instead of refetching.
	if evs[0].Old.Has("roomNumber") {
		t.Errorf("first old image = %v", evs[0].Old)
	}
	for i := 1; i < 5; i++ {
		want := fmt.Sprintf("2C-%03d", i)
		if got := evs[i].Old.First("roomNumber"); got != want {
			t.Errorf("trap %d old roomNumber = %q, want %q", i+1, got, want)
		}
	}
	st := g.Stats()
	if st.BackendFetches != 0 {
		t.Errorf("backend fetches = %d, want 0 (warm-start snapshot + changelog)", st.BackendFetches)
	}
	if st.Cache.Hits != 5 || st.Cache.Misses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 5/0", st.Cache.Hits, st.Cache.Misses)
	}
}

func TestCacheSeesWritesThatBypassTheGateway(t *testing.T) {
	d := testDIT(t)
	action := &recordingAction{}
	g := NewGateway(&LocalBackend{DIT: d}, action)
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()
	g.UseCache(cache)

	// A write straight to the directory (e.g. a device-originated update the
	// UM applied) must be visible in the next trapped before-image.
	name := dn.MustParse("cn=John Doe,o=Lucent")
	if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "telephoneNumber", Values: []string{"+1 908 582 7777"}}}}); err != nil {
		t.Fatal(err)
	}
	conn := &ldapserver.Conn{}
	if res := g.Modify(conn, replaceReq(name.String(), "roomNumber", "2C-401")); res.Code != ldap.ResultSuccess {
		t.Fatalf("modify: %+v", res)
	}
	evs := action.all()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if got := evs[0].Old.First("telephoneNumber"); got != "+1 908 582 7777" {
		t.Errorf("old telephoneNumber = %q; changelog record not applied", got)
	}
	if st := g.Stats(); st.BackendFetches != 0 {
		t.Errorf("backend fetches = %d, want 0", st.BackendFetches)
	}
}

func TestCacheFollowsAddAndDelete(t *testing.T) {
	d := testDIT(t)
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()

	name := dn.MustParse("cn=Pat Smith,o=Lucent")
	if err := d.Add(name, directory.AttrsFrom(map[string][]string{
		"objectClass": {"mcPerson"}, "sn": {"Smith"}})); err != nil {
		t.Fatal(err)
	}
	if rec, ok := cache.Lookup(name.String()); !ok || rec.First("sn") != "Smith" {
		t.Fatalf("after add: %v %v", rec, ok)
	}
	if err := d.Delete(name); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Lookup(name.String()); ok {
		t.Error("deleted entry still cached")
	}
}

// TestCacheModifyMatchesDirectoryImage pins the cache to the directory's
// own modify semantics: value deletes and adds compare values
// case-insensitively, so after modifies whose values differ in case from
// the stored ones the cached before-image must still equal what the
// directory holds.
func TestCacheModifyMatchesDirectoryImage(t *testing.T) {
	d := directory.New(nil)
	name := dn.MustParse("cn=Pat,o=Lucent")
	for _, e := range []struct {
		name  dn.DN
		attrs map[string][]string
	}{
		{dn.MustParse("o=Lucent"), map[string][]string{"o": {"Lucent"}}},
		{name, map[string][]string{"cn": {"Pat"}, "description": {"foo", "bar"}}},
	} {
		if err := d.Add(e.name, directory.AttrsFrom(e.attrs)); err != nil {
			t.Fatal(err)
		}
	}
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()

	change := func(op ldap.ModOp, attr, value string) ldap.Change {
		return ldap.Change{Op: op, Attribute: ldap.Attribute{Type: attr, Values: []string{value}}}
	}
	for i, changes := range [][]ldap.Change{
		{change(ldap.ModDelete, "description", "FOO")},
		{change(ldap.ModAdd, "description", "Qux"), change(ldap.ModDelete, "DESCRIPTION", "bAr")},
		{change(ldap.ModAdd, "Description", "zed"), change(ldap.ModDelete, "description", "QUX")},
	} {
		if err := d.Modify(name, changes); err != nil {
			t.Fatalf("modify %d: %v", i, err)
		}
		e, err := d.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cache.Lookup(name.String())
		if !ok {
			t.Fatalf("modify %d: entry fell out of the cache", i)
		}
		if want := recordFromAttrs(e.Attrs); !got.Equal(want) {
			t.Fatalf("modify %d: cached image %v, directory holds %v", i, got, want)
		}
	}
}

func TestCacheModifyDNInvalidatesOldName(t *testing.T) {
	d := testDIT(t)
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()

	old := dn.MustParse("cn=John Doe,o=Lucent")
	if _, ok := cache.Lookup(old.String()); !ok {
		t.Fatal("warm start missed the seed entry")
	}
	if err := d.ModifyDN(old, dn.RDN{{Attr: "cn", Value: "John Q Doe"}}, true); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.Lookup(old.String()); ok {
		t.Error("old name still cached after rename")
	}
	// The new name is cold; a lookup misses and the caller faults it in.
	if _, ok := cache.Lookup("cn=John Q Doe,o=Lucent"); ok {
		t.Error("new name unexpectedly warm")
	}
}

func TestCacheTrapPathInvalidationWithoutChangelog(t *testing.T) {
	d := testDIT(t)
	applier := applyAction(d)
	action := &recordingAction{}
	g := NewGateway(&LocalBackend{DIT: d}, ActionFunc(func(ev Event) ldap.Result {
		action.OnUpdate(ev)
		return applier(ev)
	}))
	g.UseCache(NewBeforeImageCache(0)) // no changelog: trap-path invalidation

	conn := &ldapserver.Conn{}
	const name = "cn=John Doe,o=Lucent"
	for i := 1; i <= 3; i++ {
		if res := g.Modify(conn, replaceReq(name, "roomNumber", fmt.Sprintf("r%d", i))); res.Code != ldap.ResultSuccess {
			t.Fatalf("modify %d: %+v", i, res)
		}
	}
	evs := action.all()
	// Every trap must see the PREVIOUS write, not a stale cached image: the
	// successful write invalidated the entry, forcing a refetch.
	for i, want := range []string{"", "r1", "r2"} {
		if got := evs[i].Old.First("roomNumber"); got != want {
			t.Errorf("trap %d old roomNumber = %q, want %q", i+1, got, want)
		}
	}
	st := g.Stats()
	if st.BackendFetches != 3 {
		t.Errorf("backend fetches = %d, want 3 (invalidate-on-write)", st.BackendFetches)
	}
}

func TestCacheOverflowForcesResync(t *testing.T) {
	d := testDIT(t)
	cache := NewBeforeImageCache(0)
	cache.AttachChangelog(d)
	defer cache.Close()

	// Push far more records than the subscription buffer holds without a
	// single drain: the channel closes and the next lookup must resync.
	name := dn.MustParse("cn=John Doe,o=Lucent")
	for i := 0; i < 1500; i++ {
		if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprintf("r%d", i)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok := cache.Lookup(name.String())
	if !ok {
		t.Fatal("lookup missed after resync")
	}
	if got := rec.First("roomNumber"); got != "r1499" {
		t.Errorf("post-resync roomNumber = %q, want r1499", got)
	}
	if st := cache.Stats(); st.Resyncs != 1 {
		t.Errorf("resyncs = %d, want 1", st.Resyncs)
	}
}

func TestCacheEvictionHonorsCapacity(t *testing.T) {
	d := testDIT(t)
	cache := NewBeforeImageCache(2)
	cache.AttachChangelog(d)
	defer cache.Close()

	for i := 0; i < 5; i++ {
		name := dn.MustParse(fmt.Sprintf("cn=Person %d,o=Lucent", i))
		if err := d.Add(name, directory.AttrsFrom(map[string][]string{
			"objectClass": {"mcPerson"}, "sn": {fmt.Sprint(i)}})); err != nil {
			t.Fatal(err)
		}
	}
	// Lookup drains the pending add records into the cache.
	if rec, ok := cache.Lookup("cn=Person 4,o=Lucent"); !ok || rec.First("sn") != "4" {
		t.Fatalf("lookup = %v %v", rec, ok)
	}
	st := cache.Stats()
	if st.Size > 2 {
		t.Errorf("size = %d, want <= 2", st.Size)
	}
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
}
