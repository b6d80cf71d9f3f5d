package msgplat

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/lexpress"
)

func startMP(t testing.TB) (*MP, string) {
	t.Helper()
	m := New()
	addr, err := m.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m, addr.String()
}

func dialMP(t testing.TB, addr, session string) *Converter {
	t.Helper()
	c, err := Dial(addr, session)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mailbox(num, name string) lexpress.Record {
	r := lexpress.NewRecord()
	r.Set("Mailbox", num)
	r.Set("Name", name)
	return r
}

func TestAddGeneratesMailboxID(t *testing.T) {
	_, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")
	got, err := c.Add(mailbox("9000", "John Doe"))
	if err != nil {
		t.Fatal(err)
	}
	id := got.First(GeneratedField)
	if !strings.HasPrefix(id, "MBX") {
		t.Fatalf("generated id = %q", id)
	}
	// Unique per add.
	got2, err := c.Add(mailbox("9001", "Pat Smith"))
	if err != nil {
		t.Fatal(err)
	}
	if got2.First(GeneratedField) == id {
		t.Error("ids not unique")
	}
	// Persisted and readable.
	stored, err := c.Get("9000")
	if err != nil {
		t.Fatal(err)
	}
	if stored.First(GeneratedField) != id {
		t.Errorf("stored id = %q, want %q", stored.First(GeneratedField), id)
	}
}

func TestClientCannotChooseGeneratedID(t *testing.T) {
	_, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")
	r := mailbox("9000", "X")
	r.Set(GeneratedField, "MBX999999")
	got, err := c.Add(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.First(GeneratedField) == "MBX999999" {
		t.Error("client-chosen id accepted")
	}
}

func TestCRUDAndClear(t *testing.T) {
	_, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")
	r := mailbox("9000", "John Doe")
	r.Set("COS", "1")
	if _, err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	r.Set("Name", "J Doe")
	r.Set("COS") // clear
	got, err := c.Modify("9000", r)
	if err != nil {
		t.Fatal(err)
	}
	if got.First("Name") != "J Doe" {
		t.Errorf("name = %q", got.First("Name"))
	}
	if got.Has("COS") {
		t.Error("cleared field persisted")
	}
	// Generated id survives modify.
	if !strings.HasPrefix(got.First(GeneratedField), "MBX") {
		t.Error("modify lost generated id")
	}
	if err := c.Delete("9000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("9000"); !errors.Is(err, device.ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestErrorsOverWire(t *testing.T) {
	m, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")
	if _, err := c.Add(mailbox("1", "A")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(mailbox("1", "A")); !errors.Is(err, device.ErrExists) {
		t.Errorf("dup err = %v", err)
	}
	if err := c.Delete("404"); !errors.Is(err, device.ErrNotFound) {
		t.Errorf("del err = %v", err)
	}
	m.Store.SetDown(true)
	if _, err := c.Get("1"); !errors.Is(err, device.ErrDown) {
		t.Errorf("down err = %v", err)
	}
}

func TestDumpQuotedValues(t *testing.T) {
	_, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")
	r := mailbox("9000", "John Q Doe") // spaces force quoting
	r.Set("Host", "vm1.example.com")
	if _, err := c.Add(r); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("dump = %d", len(recs))
	}
	if recs[0].First("Name") != "John Q Doe" {
		t.Errorf("name = %q", recs[0].First("Name"))
	}
}

func TestDDUNotificationAndEchoSuppression(t *testing.T) {
	_, addr := startMP(t)
	c := dialMP(t, addr, "metacomm")

	// Own update: suppressed.
	if _, err := c.Add(mailbox("1", "Self")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		t.Errorf("echoed own update: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}

	// Foreign DDU: delivered with old/new images.
	admin := dialMP(t, addr, "voicemail-console")
	if _, err := admin.Modify("1", mailbox("1", "Changed")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-c.Notifications():
		if n.Op != lexpress.OpModify || n.Key != "1" || n.Session != "voicemail-console" {
			t.Errorf("notification = %+v", n)
		}
		if n.New.First("name") != "Changed" {
			t.Errorf("new = %v", n.New)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}
}

// TestNotificationRightAfterConnectIsDelivered commits a change the moment
// Dial returns, many times over: the event stream must already be
// subscribed when the platform acknowledges SUBSCRIBE, or a change in that
// window never reaches the converter.
func TestNotificationRightAfterConnectIsDelivered(t *testing.T) {
	m, addr := startMP(t)
	for i := 0; i < 100; i++ {
		c, err := Dial(addr, "metacomm")
		if err != nil {
			t.Fatal(err)
		}
		num := fmt.Sprintf("7%04d", i)
		if _, err := m.Store.Add("console", mailbox(num, "Fresh")); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-c.Notifications():
			if n.Key != num {
				t.Fatalf("round %d: notification for %q, want %q", i, n.Key, num)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: change committed right after connect never notified", i)
		}
		c.Close()
	}
}
