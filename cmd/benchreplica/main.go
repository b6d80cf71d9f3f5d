// Command benchreplica measures what multi-master replication buys and
// costs (EXPERIMENTS.md E23), writing BENCH_replica_<rev>.json:
//
//   - Read scaling: ops/s of a pure base-object search workload against a
//     1-, 2-, and 3-node mesh with connections round-robined across nodes —
//     the paper's §2 recipe (replicas for read scalability) measured on the
//     real wire path, full metacommd stacks in-process.
//   - Join catch-up: how fast a brand-new node seeds itself from a loaded
//     peer over the snapshot stream WITHOUT quiescing it — entries/s from
//     first dial to live cursor, measured at the directory layer.
//
// Example:
//
//	benchreplica -conns 64 -duration 3s -entries 1000 -join-entries 20000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	metacomm "metacomm"
	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
	"metacomm/internal/mcschema"
	"metacomm/internal/replica"
)

func main() {
	var (
		conns       = flag.Int("conns", 64, "concurrent search connections (split across nodes)")
		duration    = flag.Duration("duration", 3*time.Second, "measurement window per node count")
		entries     = flag.Int("entries", 1000, "seeded person entries for the read workload")
		joinEntries = flag.Int("join-entries", 20000, "directory size for the join catch-up measurement")
		maxNodes    = flag.Int("max-nodes", 3, "largest mesh size for the read-scaling sweep")
		depth       = flag.Int("pipeline", 8, "searches pipelined per burst")
		out         = flag.String("out", "", "output JSON path (default BENCH_replica_<rev>.json)")
		rev         = flag.String("rev", "", "revision label (default git rev-parse --short HEAD)")
	)
	flag.Parse()

	res := result{
		Rev:       revision(*rev),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Config: configJSON{
			Conns: *conns, Pipeline: *depth, DurationSec: duration.Seconds(),
			Entries: *entries, JoinEntries: *joinEntries,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		},
	}

	for n := 1; n <= *maxNodes; n++ {
		ops := readScaling(n, *conns, *depth, *entries, *duration)
		res.ReadScaling = append(res.ReadScaling, scalingJSON{
			Nodes: n, OpsPerSec: round2(ops),
		})
		fmt.Printf("read scaling %d node(s): %.0f ops/s\n", n, ops)
	}

	sec, method := joinCatchup(*joinEntries)
	res.Join = joinJSON{
		Entries:       *joinEntries,
		CatchupSec:    round2(sec),
		EntriesPerSec: round2(float64(*joinEntries) / sec),
		Method:        method,
	}
	fmt.Printf("join catch-up: %d entries in %.2fs (%.0f entries/s, %s)\n",
		*joinEntries, sec, float64(*joinEntries)/sec, method)

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_replica_%s.json", res.Rev)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		log.Fatalf("benchreplica: marshal: %v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		log.Fatalf("benchreplica: write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

// freePort reserves a loopback address nodes can be told about before the
// listener exists.
func freePort() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("benchreplica: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// readScaling starts an n-node full-stack mesh, seeds it, and drives a pure
// search workload round-robined across every node's LTAP endpoint.
func readScaling(n, conns, depth, entries int, duration time.Duration) float64 {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = freePort()
	}
	systems := make([]*metacomm.System, n)
	for i := range systems {
		cfg := metacomm.Config{}
		if n > 1 {
			cfg.NodeID = uint32(i + 1)
			cfg.ReplicationAddr = addrs[i]
			for j, a := range addrs {
				if j != i {
					cfg.Peers = append(cfg.Peers, a)
				}
			}
		}
		s, err := metacomm.Start(cfg)
		if err != nil {
			log.Fatalf("benchreplica: node %d: %v", i+1, err)
		}
		defer s.Close()
		systems[i] = s
	}

	// Seed through node 1; every node must hold the population before the
	// measurement starts (replication does the distribution when n > 1).
	c, err := ldapclient.Dial(systems[0].LTAPAddrActual)
	if err != nil {
		log.Fatalf("benchreplica: %v", err)
	}
	dns := make([]string, entries)
	const batch = 64
	for lo := 0; lo < entries; lo += batch {
		hi := lo + batch
		if hi > entries {
			hi = entries
		}
		ops := make([]ldap.Op, 0, hi-lo)
		for i := lo; i < hi; i++ {
			dns[i] = fmt.Sprintf("cn=Replica Person %05d,o=Lucent", i)
			ops = append(ops, &ldap.AddRequest{DN: dns[i], Attributes: []ldap.Attribute{
				{Type: "objectClass", Values: []string{"mcPerson"}},
				{Type: "cn", Values: []string{fmt.Sprintf("Replica Person %05d", i)}},
				{Type: "sn", Values: []string{fmt.Sprintf("Person %05d", i)}},
			}})
		}
		for _, r := range c.Pipeline(ops) {
			if r.Err != nil {
				log.Fatalf("benchreplica: seed: %v", r.Err)
			}
		}
	}
	c.Close()
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range systems {
		for s.DIT.Len() < entries+1 {
			if time.Now().After(deadline) {
				log.Fatalf("benchreplica: population never replicated to all %d nodes", n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	var (
		stop time.Time
		ops  atomic.Uint64
		wg   sync.WaitGroup
	)
	stop = time.Now().Add(duration)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := ldapclient.Dial(systems[w%n].LTAPAddrActual)
			if err != nil {
				return
			}
			defer conn.Close()
			burst := make([]ldap.Op, depth)
			i := w
			for time.Now().Before(stop) {
				for k := range burst {
					burst[k] = &ldap.SearchRequest{BaseDN: dns[i%len(dns)], Scope: ldap.ScopeBaseObject}
					i++
				}
				for _, r := range conn.Pipeline(burst) {
					if r.Err != nil {
						return
					}
					ops.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(ops.Load()) / duration.Seconds()
}

// joinCatchup loads one node with n entries, then times a fresh joiner from
// first dial to holding the full tree with its cursor at the peer's seq.
func joinCatchup(n int) (sec float64, method string) {
	src := directory.NewSegmented(mcschema.New(), 4)
	r1 := replica.NewReplicator(1, src)
	addr, err := r1.Serve("127.0.0.1:0")
	if err != nil {
		log.Fatalf("benchreplica: %v", err)
	}
	defer r1.Stop()
	suffix := directory.NewAttrs()
	suffix.Put("objectClass", "organization")
	if err := src.Add(dn.MustParse("o=Lucent"), suffix); err != nil {
		log.Fatalf("benchreplica: %v", err)
	}
	for i := 0; i < n; i++ {
		err := src.Add(dn.MustParse(fmt.Sprintf("cn=Join %06d,o=Lucent", i)),
			directory.AttrsFrom(map[string][]string{
				"objectClass": {"mcPerson"},
				"cn":          {fmt.Sprintf("Join %06d", i)},
				"sn":          {"Join"},
			}))
		if err != nil {
			log.Fatalf("benchreplica: populate: %v", err)
		}
	}

	joiner := directory.NewSegmented(mcschema.New(), 4)
	r2 := replica.NewReplicator(2, joiner)
	r2.AddPeer(addr.String())
	srcSeq := src.Seq()
	t0 := time.Now()
	r2.Start()
	defer r2.Stop()
	for {
		ps := r2.Stats().Peers
		if joiner.Len() >= n+1 && len(ps) == 1 && ps[0].Cursor >= srcSeq {
			elapsed := time.Since(t0).Seconds()
			method = "snapshot"
			if ps[0].Snapshots == 0 {
				method = "resume"
			}
			return elapsed, method
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type result struct {
	Rev         string        `json:"rev"`
	Timestamp   string        `json:"timestamp"`
	Config      configJSON    `json:"config"`
	ReadScaling []scalingJSON `json:"read_scaling"`
	Join        joinJSON      `json:"join"`
}

type configJSON struct {
	Conns       int     `json:"conns"`
	Pipeline    int     `json:"pipeline"`
	DurationSec float64 `json:"duration_sec"`
	Entries     int     `json:"entries"`
	JoinEntries int     `json:"join_entries"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
}

type scalingJSON struct {
	Nodes     int     `json:"nodes"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

type joinJSON struct {
	Entries       int     `json:"entries"`
	CatchupSec    float64 `json:"catchup_sec"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	Method        string  `json:"method"`
}

func revision(explicit string) string {
	if explicit != "" {
		return explicit
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}
