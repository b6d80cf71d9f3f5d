package metacomm_test

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// freePort grabs a loopback port that is free right now, for nodes that
// must be dialable at a known address before they start. It picks below
// the kernel's ephemeral range (32768 and up by default on Linux): a port
// from that range can be taken as the source port of any outgoing
// connection — a starting node makes dozens — between this probe and the
// node's own bind.
func freePort(t *testing.T) string {
	t.Helper()
	for i := 0; i < 100; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12000))
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			return addr
		}
	}
	t.Fatal("no free loopback port in 20000-31999")
	return ""
}

// waitFingerprints polls until every system's DIT reports the same
// fingerprint — byte-identical trees including per-entry origin stamps.
func waitFingerprints(t *testing.T, deadline time.Duration, systems ...*metacomm.System) {
	t.Helper()
	end := time.Now().Add(deadline)
	var fps []string
	for time.Now().Before(end) {
		fps = fps[:0]
		same := true
		for _, s := range systems {
			fps = append(fps, s.DIT.Fingerprint())
			if fps[len(fps)-1] != fps[0] {
				same = false
			}
		}
		if same {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nodes did not converge: fingerprints %v", fps)
}

// TestMultiMasterJoinUnderLoad proves the tentpole's join guarantee: a new
// node seeds itself from a running peer WITHOUT quiescing it — the existing
// node keeps acking every write during the whole catch-up — and the joiner
// reaches the live cursor and accepts writes of its own.
func TestMultiMasterJoinUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// Node B's replication address is fixed up front so node A can list it
	// as a peer before B exists; A's link redials until B arrives.
	addrB := freePort(t)
	a := startSystem(t, metacomm.Config{
		NodeID:          1,
		ReplicationAddr: "127.0.0.1:0",
		Peers:           []string{addrB},
	})
	ca := client(t, a)

	const people = 80
	for i := 0; i < people; i++ {
		err := ca.Add(fmt.Sprintf("cn=Join %02d,o=Lucent", i), []ldap.Attribute{
			{Type: "objectClass", Values: []string{"mcPerson"}},
			{Type: "cn", Values: []string{fmt.Sprintf("Join %02d", i)}},
			{Type: "sn", Values: []string{"Join"}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Sustained 95/5 load against the EXISTING node. Every operation must be
	// acked — a single rejection while the joiner catches up fails the test.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		acked    atomic.Uint64
		rejected atomic.Uint64
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := a.Client()
			if err != nil {
				rejected.Add(1)
				return
			}
			defer conn.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				dn := fmt.Sprintf("cn=Join %02d,o=Lucent", rng.Intn(people))
				if rng.Intn(100) < 5 {
					err = conn.Modify(dn, []ldap.Change{{Op: ldap.ModReplace,
						Attribute: ldap.Attribute{Type: "roomNumber",
							Values: []string{fmt.Sprintf("W%d-%d", w, i)}}}})
				} else {
					_, err = conn.Search(&ldap.SearchRequest{BaseDN: dn, Scope: ldap.ScopeBaseObject})
				}
				if err != nil {
					rejected.Add(1)
				} else {
					acked.Add(1)
				}
			}
		}(w)
	}

	// Let the load establish itself, then bring up the joiner mid-stream.
	time.Sleep(200 * time.Millisecond)
	b := startSystem(t, metacomm.Config{
		NodeID:          2,
		ReplicationAddr: addrB,
		Peers:           []string{a.ReplicationAddrActual},
	})

	// The joiner is immediately writable — multi-master means a write landing
	// on the newest node during its own catch-up is still acked and flows to
	// the rest of the mesh.
	cb := client(t, b)
	if err := cb.Add("cn=Born On B,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
		{Type: "cn", Values: []string{"Born On B"}},
		{Type: "sn", Values: []string{"B"}},
	}); err != nil {
		t.Fatalf("write on joiner during catch-up rejected: %v", err)
	}

	// Keep the pressure on through the catch-up window, then stop.
	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()

	if r := rejected.Load(); r != 0 {
		t.Fatalf("%d operations rejected on the existing node during join (%d acked)", r, acked.Load())
	}
	if acked.Load() == 0 {
		t.Fatal("load generator did nothing")
	}

	// The joiner reaches the live cursor: its link's cursor catches the
	// peer's commit seq once writes stop, and the trees are byte-identical.
	waitFingerprints(t, 15*time.Second, a, b)
	seqA := a.DIT.Seq()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ps := b.Replicator.Stats().Peers
		if len(ps) == 1 && ps[0].Cursor >= seqA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner cursor %d never reached peer seq %d", ps[0].Cursor, seqA)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// And the write born on the joiner made it back to the original node.
	entries, err := ca.Search(&ldap.SearchRequest{BaseDN: "cn=Born On B,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil || len(entries) != 1 {
		t.Fatalf("joiner-origin write missing on node A: %d entries, %v", len(entries), err)
	}
}

// TestMultiMasterWritesAnywhereConverge is the basic two-node exchange: a
// write accepted on either node appears on both, and a conflicting write on
// the same DN resolves to one winner everywhere.
func TestMultiMasterWritesAnywhereConverge(t *testing.T) {
	addrA, addrB := freePort(t), freePort(t)
	a := startSystem(t, metacomm.Config{NodeID: 1, ReplicationAddr: addrA, Peers: []string{addrB}})
	b := startSystem(t, metacomm.Config{NodeID: 2, ReplicationAddr: addrB, Peers: []string{addrA}})
	ca, cb := client(t, a), client(t, b)

	if err := ca.Add("cn=On A,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
		{Type: "cn", Values: []string{"On A"}}, {Type: "sn", Values: []string{"A"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Add("cn=On B,o=Lucent", []ldap.Attribute{
		{Type: "objectClass", Values: []string{"mcPerson"}},
		{Type: "cn", Values: []string{"On B"}}, {Type: "sn", Values: []string{"B"}},
	}); err != nil {
		t.Fatal(err)
	}
	waitFingerprints(t, 10*time.Second, a, b)

	// Concurrent same-DN modifies from both sides: one winner, both trees.
	if err := ca.Modify("cn=On A,o=Lucent", []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"from-A"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := cb.Modify("cn=On A,o=Lucent", []ldap.Change{{Op: ldap.ModReplace,
		Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{"from-B"}}}}); err != nil {
		t.Fatal(err)
	}
	waitFingerprints(t, 10*time.Second, a, b)
	entries, err := ca.Search(&ldap.SearchRequest{BaseDN: "cn=On A,o=Lucent", Scope: ldap.ScopeBaseObject})
	if err != nil || len(entries) != 1 {
		t.Fatalf("search: %d entries, %v", len(entries), err)
	}
	got := entries[0].First("roomNumber")
	if got != "from-A" && got != "from-B" {
		t.Fatalf("converged roomNumber = %q, want one of the two writes", got)
	}
}

// TestMeshCloseLeavesNoGoroutines closes a two-node mesh while its
// replication streams are live — the joiner mid catch-up (a snapshot, or a
// resume replaying the changelog tail) while writes keep the change stream
// busy — and requires every goroutine the
// two systems started (publisher serve loops and disconnect watchers, link
// sessions and their stop watchers, UM, gateway, servers) to exit.
func TestMeshCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	addrB := freePort(t)
	a, err := metacomm.Start(metacomm.Config{NodeID: 1, ReplicationAddr: "127.0.0.1:0", Peers: []string{addrB}})
	if err != nil {
		t.Fatal(err)
	}
	const people = 5000
	for i := 0; i < people; i++ {
		cn := fmt.Sprintf("Leak %04d", i)
		if err := a.DIT.Add(dn.MustParse("cn="+cn+",o=Lucent"), directory.AttrsFrom(map[string][]string{
			"objectClass": {"mcPerson"}, "cn": {cn}, "sn": {"Leak"}})); err != nil {
			a.Close()
			t.Fatal(err)
		}
	}
	b, err := metacomm.Start(metacomm.Config{NodeID: 2, ReplicationAddr: addrB, Peers: []string{a.ReplicationAddrActual}})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}

	// Keep A's change stream busy while B catches up.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.DIT.Modify(dn.MustParse(fmt.Sprintf("cn=Leak %04d,o=Lucent", i%people)), []ldap.Change{{
				Op: ldap.ModReplace, Attribute: ldap.Attribute{Type: "roomNumber", Values: []string{fmt.Sprint(i)}}}})
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ps := b.Replicator.Stats().Peers; len(ps) == 1 && ps[0].Snapshots+ps[0].Resumes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never started its catch-up")
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()
	close(stop)
	wg.Wait()
	a.Close()

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
