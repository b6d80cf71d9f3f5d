package pbx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/lexpress"
)

func startPBX(t testing.TB) (*PBX, string) {
	t.Helper()
	p := New()
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p, addr.String()
}

func dial(t testing.TB, addr, session string) *Converter {
	t.Helper()
	c, err := Dial(addr, session)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func station(ext, name string) lexpress.Record {
	r := lexpress.NewRecord()
	r.Set("Extension", ext)
	r.Set("Name", name)
	return r
}

func TestConverterCRUDOverWire(t *testing.T) {
	_, addr := startPBX(t)
	c := dial(t, addr, "metacomm")

	rec := station("2-9000", "John Doe")
	rec.Set("Room", "2C 401") // space forces quoting on the wire
	if _, err := c.Add(rec); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("2-9000")
	if err != nil {
		t.Fatal(err)
	}
	if got.First("Name") != "John Doe" || got.First("Room") != "2C 401" {
		t.Errorf("got = %v", got)
	}

	rec.Set("Name", "John Q Doe")
	rec.Set("Room") // clear
	if _, err := c.Modify("2-9000", rec); err != nil {
		t.Fatal(err)
	}
	got, _ = c.Get("2-9000")
	if got.First("Name") != "John Q Doe" {
		t.Errorf("name = %q", got.First("Name"))
	}
	if got.Has("Room") {
		t.Error("cleared field persisted")
	}

	if err := c.Delete("2-9000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("2-9000"); !errors.Is(err, device.ErrNotFound) {
		t.Errorf("get err = %v", err)
	}
}

func TestConverterErrors(t *testing.T) {
	_, addr := startPBX(t)
	c := dial(t, addr, "metacomm")
	if _, err := c.Add(station("1", "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(station("1", "A")); !errors.Is(err, device.ErrExists) {
		t.Errorf("dup err = %v", err)
	}
	if err := c.Delete("zzz"); !errors.Is(err, device.ErrNotFound) {
		t.Errorf("del err = %v", err)
	}
	if _, err := c.Modify("zzz", station("zzz", "X")); !errors.Is(err, device.ErrNotFound) {
		t.Errorf("mod err = %v", err)
	}
}

func TestConverterDump(t *testing.T) {
	p, addr := startPBX(t)
	for i := 0; i < 5; i++ {
		if _, err := p.Store.Add("seed", station("ext-"+string(rune('a'+i)), "user")); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr, "metacomm")
	recs, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("dump = %d records", len(recs))
	}
	if recs[0].First("Extension") != "ext-a" {
		t.Errorf("first = %v", recs[0])
	}
}

// TestDDUNotificationReachesConverter is the DDU path of paper §4.4: an
// update applied directly at the device must reach the filter.
func TestDDUNotificationReachesConverter(t *testing.T) {
	p, addr := startPBX(t)
	c := dial(t, addr, "metacomm")

	// A direct device update by a switch administrator.
	admin := dial(t, addr, "craft-terminal")
	if _, err := admin.Add(station("2-9000", "John Doe")); err != nil {
		t.Fatal(err)
	}

	select {
	case n := <-c.Notifications():
		if n.Op != lexpress.OpAdd || n.Key != "2-9000" || n.Session != "craft-terminal" {
			t.Errorf("notification = %+v", n)
		}
		if n.New.First("name") != "John Doe" {
			t.Errorf("new image = %v", n.New)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}
	_ = p
}

// TestOwnUpdatesAreSuppressed verifies echo suppression: the converter must
// not see notifications for updates it applied itself.
func TestOwnUpdatesAreSuppressed(t *testing.T) {
	_, addr := startPBX(t)
	c := dial(t, addr, "metacomm")
	if _, err := c.Add(station("1", "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Modify("1", station("1", "B")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		t.Errorf("echoed own update: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestModifyNotificationCarriesOldAndNew(t *testing.T) {
	_, addr := startPBX(t)
	c := dial(t, addr, "metacomm")
	admin := dial(t, addr, "craft")
	if _, err := admin.Add(station("1", "Before")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Notifications(): // the add
	case <-time.After(2 * time.Second):
		t.Fatal("no add notification")
	}
	if _, err := admin.Modify("1", station("1", "After")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		if n.Old.First("name") != "Before" || n.New.First("name") != "After" {
			t.Errorf("old/new = %v / %v", n.Old, n.New)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no modify notification")
	}
}

func TestDeviceDownSurfacesOverWire(t *testing.T) {
	p, addr := startPBX(t)
	c := dial(t, addr, "metacomm")
	p.Store.SetDown(true)
	if _, err := c.Get("1"); !errors.Is(err, device.ErrDown) {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Dump(); !errors.Is(err, device.ErrDown) {
		t.Errorf("dump err = %v", err)
	}
}

func TestProtocolRejectsUnknownFields(t *testing.T) {
	_, addr := startPBX(t)
	c := dial(t, addr, "metacomm")
	bad := lexpress.NewRecord()
	bad.Set("Extension", "1")
	bad.Set("FavoriteColor", "blue")
	if _, err := c.Add(bad); err == nil {
		t.Error("unknown field accepted — the device schema is closed")
	}
}

// TestNotificationRightAfterConnectIsDelivered commits a change the moment
// Dial returns, many times over: the monitor stream must already be
// subscribed when the PBX acknowledges "monitor on", or a change in that
// window never reaches the converter.
func TestNotificationRightAfterConnectIsDelivered(t *testing.T) {
	p, addr := startPBX(t)
	for i := 0; i < 100; i++ {
		c, err := Dial(addr, "metacomm")
		if err != nil {
			t.Fatal(err)
		}
		ext := fmt.Sprintf("3-%04d", i)
		if _, err := p.Store.Add("craft", station(ext, "Fresh")); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-c.Notifications():
			if n.Key != ext {
				t.Fatalf("round %d: notification for %q, want %q", i, n.Key, ext)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: change committed right after connect never notified", i)
		}
		c.Close()
	}
}
