package main

import (
	"testing"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
)

// personHandler answers base searches with the requested entry, after an
// optional delay; everything else succeeds.
type personHandler struct{ delay time.Duration }

func (h personHandler) Bind(*ldapserver.Conn, *ldap.BindRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) Search(c *ldapserver.Conn, req *ldap.SearchRequest, send func(*ldap.SearchResultEntry) error) ldap.Result {
	time.Sleep(h.delay)
	send(&ldap.SearchResultEntry{DN: req.BaseDN})
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) Add(*ldapserver.Conn, *ldap.AddRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) Delete(*ldapserver.Conn, *ldap.DeleteRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) Modify(*ldapserver.Conn, *ldap.ModifyRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) ModifyDN(*ldapserver.Conn, *ldap.ModifyDNRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultSuccess}
}

func (h personHandler) Compare(*ldapserver.Conn, *ldap.CompareRequest) ldap.Result {
	return ldap.Result{Code: ldap.ResultCompareTrue}
}

func (h personHandler) Extended(*ldapserver.Conn, *ldap.ExtendedRequest) *ldap.ExtendedResponse {
	return &ldap.ExtendedResponse{}
}

func startPersonServer(t *testing.T, delay time.Duration) string {
	t.Helper()
	srv := ldapserver.NewServer(personHandler{delay: delay})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr.String()
}

// An open-loop generator must charge a stall to every op scheduled during
// it: latency runs from the scheduled send, so the ops the stalled
// scheduler sent late carry the wait (no coordinated omission).
func TestScheduledSendCarriesInjectedStall(t *testing.T) {
	addr := startPersonServer(t, 0)
	g, err := dialGenerator([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	const (
		n       = 200
		spacing = 2 * time.Millisecond
		stallAt = 50
		stall   = 50 * time.Millisecond
	)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{at: time.Duration(i) * spacing, kind: opSearch, num: i}
	}
	g.beforeSend = func(i int) {
		if i == stallAt {
			time.Sleep(stall)
		}
	}
	ph := g.run(ops, 10*time.Second)
	stallEnd := time.Duration(stallAt)*spacing + stall
	carried := 0
	for i := range ph.res {
		r := &ph.res[i]
		if !r.ok() {
			t.Fatalf("op %d failed: %s", i, r.bad)
		}
		lat := r.done - r.sched
		if r.sched >= time.Duration(stallAt)*spacing && r.sched < stallEnd {
			if want := stallEnd - r.sched; lat < want-time.Millisecond {
				t.Errorf("op %d scheduled at %v: latency %v, want at least %v", i, r.sched, lat, want)
			}
			carried++
		}
	}
	if want := int(stall / spacing); carried != want {
		t.Errorf("%d ops scheduled in the stall, want %d", carried, want)
	}
	s := ph.stats()
	if s.attempted != n || s.failed != 0 || s.reads.Count() != n {
		t.Errorf("attempted %d failed %d recorded %d", s.attempted, s.failed, s.reads.Count())
	}
	if s.late.Max() < int64(stall-time.Millisecond) {
		t.Errorf("generator lateness max %v, want at least the stall", time.Duration(s.late.Max()))
	}
	// Half the stalled ops waited more than half the stall.
	if over := s.reads.Quantile(1 - float64(stall/spacing/2)/n); over < float64(stall/2-time.Millisecond) {
		t.Errorf("latency at the stalled ops' rank %v, want above %v", time.Duration(over), stall/2)
	}
}

// Two ops on one DN never overlap: the second waits for the first and
// keeps its own scheduled time.
func TestPerDNOrderingQueuesBehindInFlightOp(t *testing.T) {
	addr := startPersonServer(t, 20*time.Millisecond)
	g, err := dialGenerator([]string{addr, addr})
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	ops := []op{
		{at: 0, kind: opSearch, num: 7, target: 0},
		{at: time.Millisecond, kind: opSearch, num: 7, target: 1},
		{at: time.Millisecond, kind: opSearch, num: 8, target: 1},
	}
	ph := g.run(ops, 10*time.Second)
	a, b, c := ph.res[0], ph.res[1], ph.res[2]
	if !a.ok() || !b.ok() || !c.ok() {
		t.Fatalf("failures: %q %q %q", a.bad, b.bad, c.bad)
	}
	if !b.queued || b.sent < a.done {
		t.Errorf("second op on the DN sent at %v, first answered at %v (queued=%v)", b.sent, a.done, b.queued)
	}
	if a.ord != 0 || b.ord != 1 || c.ord != 0 {
		t.Errorf("ordinals %d %d %d, want 0 1 0", a.ord, b.ord, c.ord)
	}
	if b.done-b.sched < 2*20*time.Millisecond-2*time.Millisecond {
		t.Errorf("queued op latency %v does not include its wait", b.done-b.sched)
	}
	if c.queued {
		t.Error("an op on another DN was queued")
	}
}
