package main

import (
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// applyOps runs ops one at a time through the LDAP endpoint at addr.
func applyOps(t *testing.T, addr string, ops []op) {
	t.Helper()
	c, err := ldapclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range ops {
		o := &ops[i]
		switch req := o.request().(type) {
		case *ldap.AddRequest:
			err = c.Add(req.DN, req.Attributes)
		case *ldap.ModifyRequest:
			err = c.Modify(req.DN, req.Changes)
		case *ldap.DeleteRequest:
			err = c.Delete(req.DN)
		case *ldap.SearchRequest:
			_, err = c.Search(req)
		}
		if err != nil {
			t.Fatalf("%s %s: %v", o.kind, personDN(o.num), err)
		}
	}
}

// The traced assembly copies metacomm.Start's wiring; for one seeded op
// stream both must end with byte-identical directories, so the copy cannot
// drift from the product unnoticed.
func TestTracedAssemblyMatchesStart(t *testing.T) {
	defs, err := loadDefinitions()
	if err != nil {
		t.Fatal(err)
	}
	const persons = 40
	var ops []op
	for i := 0; i < persons; i++ {
		ops = append(ops, op{kind: opAdd, num: i})
	}
	b := &bench{seed: 5}
	st := newStreamState()
	ops = append(ops, stream(b.rng(1), defs.Workloads["write_through"], persons, 1000, 200*time.Millisecond, 0, st)...)
	ops = append(ops, stream(b.rng(2), defs.Workloads["read_mostly"], persons, 1000, 50*time.Millisecond, 0, st)...)

	sys, err := metacomm.Start(metacomm.Config{InitialSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rec := newRecorder()
	rec.on.Store(true)
	s, err := startStack(stackConfig{}, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	applyOps(t, sys.LTAPAddrActual, ops)
	applyOps(t, s.LTAPAddr, ops)
	if a, b := sys.DIT.Fingerprint(), s.DIT.Fingerprint(); a != b {
		t.Fatalf("directories differ after %d ops: metacomm.Start %s, traced assembly %s", len(ops), a, b)
	}
	seen := map[string]int{}
	rec.mu.Lock()
	for _, sp := range rec.spans {
		if sp.Op != "" {
			seen[sp.Name]++
		}
	}
	rec.mu.Unlock()
	for _, name := range []string{"ltap.search", "ltap.write", "ltap.backend", "ltap.action", "um.update",
		"um.backing", "dir.search", "dir.write", "device.pbx", "device.msgplat"} {
		if seen[name] == 0 {
			t.Errorf("no %s span joined to an op", name)
		}
	}
}
