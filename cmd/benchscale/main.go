// Command benchscale measures the directory at population scale
// (EXPERIMENTS.md E21): per-operation latency and journal replay time as
// the population grows 1k -> 1M, against the segmented DIT directly (no
// wire). It records, per population:
//
//   - add/modify/indexed-search latency (p50/p99), which the segmented
//     design holds flat as the population grows;
//   - live heap after a GC, plus bytes/entry (the intern table and
//     slice-backed attributes are what keep this down);
//   - "crash-recovery" replay: reattaching the journal set exactly as
//     Start does after a crash, first against the raw append-only journal
//     and again after compaction (linear in live entries, not history);
//   - one full compaction sweep under a sustained 95/5 read/write load,
//     asserting ZERO rejected writes and recording the worst write latency
//     a concurrent writer observed while segments were being rewritten.
//
// The machine-readable record lands as BENCH_scale_<rev>.json (see
// scripts/bench_scale.sh and `make bench-scale`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/mcschema"
)

func main() {
	var (
		pops     = flag.String("pops", "1000,10000,100000,1000000", "comma-separated populations to measure")
		segments = flag.Int("segments", 0, "DIT segment count (0 = default)")
		ops      = flag.Int("ops", 2000, "measured operations per op type per population")
		writers  = flag.Int("writers", 8, "concurrent populate/load writers")
		syncMode = flag.String("journal-sync", "group", "journal durability mode for the run")
		outPath  = flag.String("out", "", "output JSON path (default BENCH_scale_<rev>.json)")
		rev      = flag.String("rev", "", "revision tag for the record (default git rev-parse)")
	)
	flag.Parse()

	mode, err := directory.ParseSyncMode(*syncMode)
	if err != nil {
		fatal(err)
	}
	var populations []int
	for _, f := range strings.Split(*pops, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			fatal(fmt.Errorf("bad population %q", f))
		}
		populations = append(populations, n)
	}

	res := result{
		Rev:        revision(*rev),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Segments:   *segments,
		Sync:       mode.String(),
	}
	if res.Segments == 0 {
		res.Segments = directory.DefaultDITSegments
	}
	for _, n := range populations {
		fmt.Fprintf(os.Stderr, "benchscale: population %d...\n", n)
		pr, err := runPopulation(n, *segments, *ops, *writers, mode)
		if err != nil {
			fatal(fmt.Errorf("population %d: %w", n, err))
		}
		res.Populations = append(res.Populations, pr)
	}

	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_scale_%s.json", res.Rev)
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchscale: wrote %s\n", path)
	for _, p := range res.Populations {
		fmt.Printf("  n=%-8d add p50/p99=%d/%dus modify=%d/%dus search=%d/%dus heap/entry=%dB replay=%.0fms compacted=%.0fms compact-under-load: rejected=%d worst-write=%dus\n",
			p.Entries, p.Add.P50, p.Add.P99, p.Modify.P50, p.Modify.P99,
			p.Search.P50, p.Search.P99, p.HeapBytesPerEntry,
			float64(p.ReplayNs)/1e6, float64(p.ReplayCompactedNs)/1e6,
			p.CompactUnderLoad.RejectedWrites, p.CompactUnderLoad.WorstWriteUs)
		for _, a := range p.AttachReplay {
			fmt.Printf("    attach workers=%d records=%d wall=%.1fms records/s=%.0f MB/s=%.1f\n",
				a.Workers, a.Records, float64(a.WallNs)/1e6, a.RecordsPerSec, a.MBPerSec)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchscale: %v\n", err)
	os.Exit(1)
}

type result struct {
	Rev         string      `json:"rev"`
	Timestamp   string      `json:"timestamp"`
	GoVersion   string      `json:"goversion"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	NumCPU      int         `json:"num_cpu"`
	Segments    int         `json:"segments"`
	Sync        string      `json:"sync"`
	Populations []popResult `json:"populations"`
}

type latency struct {
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
}

type popResult struct {
	Entries        int     `json:"entries"`
	PopulateSec    float64 `json:"populate_sec"`
	PopulatePerSec float64 `json:"populate_ops_per_sec"`
	// Per-op latency in microseconds over the measured sample.
	Add    latency `json:"add_us"`
	Modify latency `json:"modify_us"`
	Search latency `json:"search_us"`
	// Heap after runtime.GC, and per live entry.
	HeapInUse         uint64 `json:"heap_in_use_bytes"`
	HeapBytesPerEntry uint64 `json:"heap_bytes_per_entry"`
	InternedNames     int    `json:"interned_names"`
	// Replay (crash-recovery attach) against the raw journal and again
	// after compaction; record counts show what compaction saved.
	ReplayNs               int64 `json:"replay_ns"`
	ReplayRecords          int   `json:"replay_records"`
	ReplayCompactedNs      int64 `json:"replay_compacted_ns"`
	ReplayCompactedRecords int   `json:"replay_compacted_records"`

	CompactUnderLoad compactLoad `json:"compact_under_load"`

	// AttachReplay (E22) measures cold attach over the compacted journal
	// set, sequential and on the worker pool.
	AttachReplay []attachPhase `json:"attach_replay"`
}

// attachPhase is one timed cold attach of the journal set.
type attachPhase struct {
	Workers       int     `json:"workers"`
	Records       uint64  `json:"records"`
	Bytes         uint64  `json:"bytes"`
	WallNs        int64   `json:"wall_ns"`
	RecordsPerSec float64 `json:"records_per_sec"`
	MBPerSec      float64 `json:"mb_per_sec"`
}

type compactLoad struct {
	// RejectedWrites MUST be zero: compaction is online.
	RejectedWrites int64 `json:"rejected_writes"`
	// Ops completed (95% indexed searches / 5% modifies by the load mix,
	// plus the adds) while the sweep ran; WorstWriteUs is the worst single
	// write latency any writer observed during it.
	Ops          int64   `json:"ops"`
	CompactSec   float64 `json:"compact_sec"`
	WorstWriteUs int64   `json:"worst_write_us"`
	SplicedBytes uint64  `json:"spliced_bytes"`
}

func personDN(i int) dn.DN {
	return dn.MustParse(fmt.Sprintf("cn=u%07d,o=Lucent", i))
}

func personAttrs(i int) *directory.Attrs {
	return directory.AttrsFrom(map[string][]string{
		"objectClass": {mcschema.ClassPerson,
			mcschema.ClassDefinityUser, mcschema.ClassMessagingUser},
		mcschema.AttrCN:                {fmt.Sprintf("u%07d", i)},
		mcschema.AttrSN:                {fmt.Sprintf("User%07d", i)},
		mcschema.AttrTelephone:         {fmt.Sprintf("+1 908 555 %04d", i%10000)},
		mcschema.AttrDefinityExtension: {fmt.Sprintf("%07d", i)},
		mcschema.AttrMailboxNumber:     {fmt.Sprintf("%07d", i)},
	})
}

func runPopulation(n, segments, ops, writers int, mode directory.SyncMode) (popResult, error) {
	dir, err := os.MkdirTemp("", "benchscale")
	if err != nil {
		return popResult{}, err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "directory.journal")

	d := directory.NewSegmented(mcschema.New(), segments)
	if _, err := d.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: mode}); err != nil {
		return popResult{}, err
	}
	d.EnableIndexes(mcschema.AttrDefinityExtension, mcschema.AttrMailboxNumber,
		mcschema.AttrCN, mcschema.AttrTelephone, "objectClass")

	suffix := directory.NewAttrs()
	suffix.Put("objectClass", mcschema.ClassOrganization)
	if err := d.Add(dn.MustParse("o=Lucent"), suffix); err != nil {
		return popResult{}, err
	}

	pr := popResult{Entries: n}

	// The measured adds complete the population, so at small populations
	// they must not dominate it.
	if ops > (n-1)/2 {
		ops = (n - 1) / 2
	}

	// Populate in parallel (every person entry is a leaf of the suffix, so
	// adds serialize on the suffix's segment for the child-link write; the
	// journal I/O and fsyncs still group-commit across writers).
	populate := n - 1 - ops
	start := time.Now()
	var wg sync.WaitGroup
	var addErr atomic.Value
	per := populate / writers
	for w := 0; w < writers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == writers-1 {
			hi = populate
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := d.Add(personDN(i), personAttrs(i)); err != nil {
					addErr.Store(err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if e := addErr.Load(); e != nil {
		return pr, e.(error)
	}
	pr.PopulateSec = time.Since(start).Seconds()
	if pr.PopulateSec > 0 {
		pr.PopulatePerSec = float64(populate) / pr.PopulateSec
	}

	// Measured adds: the last `ops` entries, timed individually.
	addNs := make([]int64, 0, ops)
	for i := populate; i < populate+ops; i++ {
		t0 := time.Now()
		if err := d.Add(personDN(i), personAttrs(i)); err != nil {
			return pr, err
		}
		addNs = append(addNs, time.Since(t0).Nanoseconds())
	}
	pr.Add = quantilesUs(addNs)

	// Measured modifies: random entries, one replace each.
	rng := rand.New(rand.NewSource(1))
	modNs := make([]int64, 0, ops)
	for k := 0; k < ops; k++ {
		name := personDN(rng.Intn(n - 1))
		t0 := time.Now()
		err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: mcschema.AttrRoom, Values: []string{strconv.Itoa(k)}}}})
		if err != nil {
			return pr, err
		}
		modNs = append(modNs, time.Since(t0).Nanoseconds())
	}
	pr.Modify = quantilesUs(modNs)

	// Measured searches: indexed equality on the device key, whole subtree.
	searchNs := make([]int64, 0, ops)
	for k := 0; k < ops; k++ {
		f := ldap.Eq(mcschema.AttrDefinityExtension, fmt.Sprintf("%07d", rng.Intn(n-1)))
		t0 := time.Now()
		got, err := d.Search(dn.MustParse("o=Lucent"), ldap.ScopeWholeSubtree, f, 0)
		if err != nil {
			return pr, err
		}
		if len(got) != 1 {
			return pr, fmt.Errorf("indexed search returned %d entries", len(got))
		}
		searchNs = append(searchNs, time.Since(t0).Nanoseconds())
	}
	pr.Search = quantilesUs(searchNs)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	pr.HeapInUse = ms.HeapInuse
	pr.HeapBytesPerEntry = ms.HeapInuse / uint64(n)
	pr.InternedNames = d.Stats().InternedNames

	// Compaction under sustained 95/5 load: writers add + modify, readers
	// search, one full sweep runs concurrently. Zero rejected writes is the
	// online guarantee.
	load := compactLoad{}
	stop := make(chan struct{})
	var loadWg sync.WaitGroup
	var rejected, opsDone, worstWrite atomic.Int64
	for w := 0; w < writers/2+1; w++ {
		loadWg.Add(1)
		go func(w int) {
			defer loadWg.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				t0 := time.Now()
				if i%20 == 0 { // 5% writes
					name := personDN(r.Intn(n - 1))
					err = d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
						Attribute: ldap.Attribute{Type: mcschema.AttrRoom, Values: []string{"load"}}}})
					if el := time.Since(t0).Nanoseconds(); el > worstWrite.Load() {
						worstWrite.Store(el)
					}
				} else {
					f := ldap.Eq(mcschema.AttrDefinityExtension, fmt.Sprintf("%07d", r.Intn(n-1)))
					_, err = d.Search(dn.MustParse("o=Lucent"), ldap.ScopeWholeSubtree, f, 0)
				}
				if err != nil {
					rejected.Add(1)
					return
				}
				opsDone.Add(1)
			}
		}(w)
	}
	csBefore := d.CompactionStats()
	t0 := time.Now()
	if err := d.Compact(); err != nil {
		return pr, err
	}
	load.CompactSec = time.Since(t0).Seconds()
	close(stop)
	loadWg.Wait()
	load.RejectedWrites = rejected.Load()
	load.Ops = opsDone.Load()
	load.WorstWriteUs = worstWrite.Load() / 1e3
	load.SplicedBytes = d.CompactionStats().SplicedBytes - csBefore.SplicedBytes
	pr.CompactUnderLoad = load
	if load.RejectedWrites != 0 {
		return pr, fmt.Errorf("%d writes rejected during online compaction", load.RejectedWrites)
	}

	// Crash-recovery replay: grow the journal back past the compacted
	// state with one more round of modifies, then reattach cold, exactly
	// as a restart after a crash would.
	for k := 0; k < ops; k++ {
		name := personDN(rng.Intn(n - 1))
		if err := d.Modify(name, []ldap.Change{{Op: ldap.ModReplace,
			Attribute: ldap.Attribute{Type: mcschema.AttrRoom, Values: []string{"post"}}}}); err != nil {
			return pr, err
		}
	}
	if err := d.CloseJournal(); err != nil {
		return pr, err
	}

	cold := directory.NewSegmented(mcschema.New(), segments)
	t0 = time.Now()
	replayed, err := cold.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: mode})
	if err != nil {
		return pr, err
	}
	pr.ReplayNs = time.Since(t0).Nanoseconds()
	pr.ReplayRecords = replayed
	if cold.Len() != n {
		return pr, fmt.Errorf("replay restored %d entries, want %d", cold.Len(), n)
	}
	// Compact, close, and replay again: linear in live entries now.
	if err := cold.Compact(); err != nil {
		return pr, err
	}
	if err := cold.CloseJournal(); err != nil {
		return pr, err
	}
	cold2 := directory.NewSegmented(mcschema.New(), segments)
	t0 = time.Now()
	replayed, err = cold2.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: mode})
	if err != nil {
		return pr, err
	}
	pr.ReplayCompactedNs = time.Since(t0).Nanoseconds()
	pr.ReplayCompactedRecords = replayed
	if cold2.Len() != n {
		return pr, fmt.Errorf("compacted replay restored %d entries, want %d", cold2.Len(), n)
	}
	if err := cold2.CloseJournal(); err != nil {
		return pr, err
	}

	// E22 attach/replay phases over the compacted set: sequential and on
	// the worker pool — the parallel headroom. The pool is
	// min(GOMAXPROCS, segments), so each phase sets GOMAXPROCS: 1 for
	// sequential, max(2, GOMAXPROCS) for the pool (exercising it even on
	// one CPU).
	parWorkers := max(2, runtime.GOMAXPROCS(0))
	// Each timed config takes the best of three attaches, and the two
	// configs interleave their tries: a cold attach is one long measurement
	// with no averaging, successive attaches in one process get gradually
	// slower as the heap fragments, and noisy neighbors swing single runs —
	// back-to-back triples would bias whichever config ran first.
	attachBest := func(workers int, best *attachPhase) error {
		runtime.GC()
		a, err := attachOnce(base, segments, n, workers, mode)
		if err != nil {
			return fmt.Errorf("attach phase w%d: %w", workers, err)
		}
		if best.WallNs == 0 || a.WallNs < best.WallNs {
			*best = a
		}
		return nil
	}
	var seqBest, parBest attachPhase
	for t := 0; t < 3; t++ {
		if err := attachBest(1, &seqBest); err != nil {
			return pr, err
		}
		if err := attachBest(parWorkers, &parBest); err != nil {
			return pr, err
		}
	}
	pr.AttachReplay = append(pr.AttachReplay, seqBest, parBest)
	return pr, nil
}

// attachOnce cold-attaches the journal set with GOMAXPROCS set to workers
// and reports the replay phase stats the directory recorded (decode + link
// pass, excluding index build).
func attachOnce(base string, segments, wantLen, workers int, mode directory.SyncMode) (attachPhase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	d := directory.NewSegmented(mcschema.New(), segments)
	if _, err := d.AttachJournalSet(directory.JournalSetConfig{Base: base, Mode: mode}); err != nil {
		return attachPhase{}, err
	}
	if d.Len() != wantLen {
		d.CloseJournal()
		return attachPhase{}, fmt.Errorf("attach restored %d entries, want %d", d.Len(), wantLen)
	}
	st := d.JournalStats()
	a := attachPhase{
		Workers:       st.ReplayWorkers,
		Records:       st.ReplayedRecords,
		Bytes:         st.ReplayedBytes,
		WallNs:        st.ReplayNs,
		RecordsPerSec: st.ReplayRecordsPerSec(),
		MBPerSec:      st.ReplayMBPerSec(),
	}
	return a, d.CloseJournal()
}

// quantilesUs reduces a nanosecond sample to microsecond p50/p99.
func quantilesUs(ns []int64) latency {
	if len(ns) == 0 {
		return latency{}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	q := func(p float64) int64 {
		i := int(p * float64(len(ns)-1))
		return ns[i] / 1e3
	}
	return latency{P50: q(0.50), P99: q(0.99)}
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
