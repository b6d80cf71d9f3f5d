// Command perfbench is MetaComm's benchmark. One run builds a pristine data
// dir, starts stock metacommd on copies of it, drives one workload open
// loop from a seed, checks every answer, and prints the end-to-end metrics
// (--trace 0) or, from the benchmark's own traced assembly of the same
// stack, the per-layer metrics (--trace 1). The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Tail
// percentiles, capacity and join time are printed above it as "(info)"
// lines: on a small shared machine they spread too widely between runs to
// guard against regressions.
//
//	bash perfbench/run.sh --workload write_through --seed 1 --seconds 25 --trace 0
//
// run.sh builds metacommd and this program into .bench_build; the
// workloads are defined in workloads.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds measured figures that are printed but not part of the
	// result line: their run-to-run spread on a small shared machine is
	// wider than any bound a regression check could use.
	Info map[string]metric `json:"-"`
}

// bench is one invocation's settings and scratch space.
type bench struct {
	name     string
	w        workloadDef
	persons  int
	seed     int64
	dur      time.Duration
	work     string // scratch dir of this run
	bin      string // stock metacommd
	self     string // this program (the traced assembly's binary)
	pristine string // the workload's data dir, never served directly
	launches int
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve-traced" {
		serveTraced(os.Args[2:])
		return
	}
	workload := flag.String("workload", "", "workload name (see workloads.json)")
	seed := flag.Int64("seed", 1, "seed of the op stream")
	seconds := flag.Int("seconds", 10, "length of the fixed-rate phase")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from the traced assembly")
	buildDir := flag.String("build", ".bench_build", "directory holding metacommd and scratch space")
	flag.Parse()
	rep, err := runBench(*workload, *seed, *seconds, *trace == 1, *buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if rep == nil {
			os.Exit(2)
		}
		rep.Correct = false
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

func runBench(name string, seed int64, seconds int, trace bool, buildDir string) (*report, error) {
	defs, err := loadDefinitions()
	if err != nil {
		return nil, err
	}
	w, ok := defs.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	// The generator is one process on at most two threads.
	if runtime.NumCPU() > 2 || runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	build, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	b := &bench{name: name, w: w, persons: defs.Population.Persons, seed: seed,
		dur: time.Duration(seconds) * time.Second, bin: filepath.Join(build, "metacommd")}
	if b.self, err = os.Executable(); err != nil {
		return nil, err
	}
	if _, err := os.Stat(b.bin); err != nil {
		return nil, fmt.Errorf("metacommd not built: %w", err)
	}
	b.work, err = os.MkdirTemp(build, "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v num_cpu=%d GOMAXPROCS=%d go=%s rev=%s\n",
		name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision())
	node := uint32(0)
	if name == "mesh_join" {
		node = 1
	}
	b.pristine = filepath.Join(b.work, "pristine")
	t0 := time.Now()
	if err := buildDataDir(b.pristine, b.persons, node); err != nil {
		return nil, fmt.Errorf("building data dir: %w", err)
	}
	fmt.Printf("perfbench: data dir with %d persons built in %.2fs\n", b.persons, time.Since(t0).Seconds())
	var rep *report
	if trace {
		rep, err = b.traced()
	} else {
		switch name {
		case "mesh_join":
			rep, err = b.meshJoin()
		default:
			rep, err = b.singleNode()
		}
	}
	if rep != nil {
		printMetrics(rep.Metrics, "")
		printMetrics(rep.Info, " (info)")
		fmt.Printf("  attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	}
	return rep, err
}

func printMetrics(m map[string]metric, note string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %14.4f %s%s\n", k, m[k].Value, m[k].Unit, note)
	}
}

func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1_000_003 + stream))
}

// setupRuns is how many times a run starts a server on a pristine copy to
// measure set-up; the last start serves the workload.
const setupRuns = 3

// start launches stock metacommd, or with traced the traced assembly, on
// a fresh copy of pristine (an empty dir when pristine is ""). For the
// traced assembly it also returns the path of the trace it writes.
func (b *bench) start(traced bool, pristine string, extra ...string) (*server, string, error) {
	b.launches++
	data := filepath.Join(b.work, fmt.Sprintf("data-%d", b.launches))
	if pristine != "" {
		if err := copyDir(pristine, data); err != nil {
			return nil, "", err
		}
	}
	// The server picks its LTAP port and prints it: a port picked here and
	// freed could be taken by one of the server's own connections before
	// it listens.
	bin, args, out := b.bin, []string{"-data", data, "-ltap", "127.0.0.1:0"}, ""
	if traced {
		out = filepath.Join(b.work, fmt.Sprintf("trace-%d.json", b.launches))
		bin, args = b.self, append([]string{"serve-traced", "-trace-out", out}, args...)
	} else {
		args = append(args, "-wba", "", "-quiet")
	}
	probeDN := personDN(0)
	if pristine == "" {
		probeDN = "o=Lucent"
	}
	s, err := launch(bin, append(args, extra...), filepath.Join(b.work, fmt.Sprintf("server-%d.log", b.launches)), probeDN)
	return s, out, err
}

// startStock starts stock metacommd (see start).
func (b *bench) startStock(pristine string, extra ...string) (*server, error) {
	s, _, err := b.start(false, pristine, extra...)
	return s, err
}

// measureSetup starts and stops setupRuns-1 servers, then starts the one
// that serves the run; it returns that server and the median set-up time.
func (b *bench) measureSetup(start func() (*server, error)) (*server, float64, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		s, err := start()
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s.setup.Seconds())
		fmt.Printf("perfbench: set-up %d: %.3fs, VmHWM %.1f MB\n", i+1, s.setup.Seconds(), s.peakRSS())
		if i == setupRuns-1 {
			return s, median(setups), nil
		}
		s.stop()
	}
	panic("unreachable")
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantileOf returns the q-quantile of xs, interpolated linearly between
// the order statistics around it.
func quantileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(ns float64) float64 { return ns / 1e6 }

// singleNode runs read_mostly or write_through against one stock server.
func (b *bench) singleNode() (*report, error) {
	s, setup, err := b.measureSetup(func() (*server, error) { return b.startStock(b.pristine) })
	if err != nil {
		return nil, err
	}
	defer s.stop()
	d, err := b.driveSingle(s, false)
	if d != nil {
		defer d.g.close()
	}
	if err != nil {
		return reportOf(d), err
	}
	// The peak resident set is read before the capacity search, whose
	// overload steps would otherwise set it.
	rss := s.peakRSS()
	capacity := b.capacity(d.g, d.limited(b.w), func(r *rand.Rand, rate float64, dur time.Duration) []op {
		return b.assign(stream(r, b.w, b.persons, rate, dur, 0, d.st))
	})
	return d.endToEnd(setup, capacity, rss), nil
}

// assign spreads a single-node workload's ops over its two connections by
// person, so every op on one DN uses one connection. The server runs one
// connection's requests in order, so a search may wait behind a write.
func (b *bench) assign(ops []op) []op {
	for i := range ops {
		ops[i].target = ops[i].num % 2
	}
	return ops
}

// capacity finds the highest offered rate at which the workload's latency
// limit holds and the backlog does not grow. The fixed-rate phase, whose
// limited percentile is p0, is the first point. Each further step offers a
// rate for capStep; a step misses when an op fails, the windowed limited
// percentile exceeds the limit, or the last answer comes later than the
// limit after the step's end. Rates grow by capFactor until a step misses
// (or shrink until one holds); the capacity is then interpolated,
// log-linearly in rate and percentile, to where the percentile meets the
// limit between the last step that held and the first that missed.
func (b *bench) capacity(g *generator, p0 float64, mk func(r *rand.Rand, rate float64, d time.Duration) []op) float64 {
	limit := b.w.Limit.Ms * 1e6
	step := 0
	try := func(rate float64) float64 {
		step++
		s := g.run(mk(b.rng(int64(100+step)), rate, capStep), 30*time.Second).stats()
		p, n := s.writeP99, s.writes.Count()
		if b.w.Limit.Metric == "read_p99_ms" {
			p, n = s.readP99, s.reads.Count()
		}
		tail := float64(s.span - capStep)
		if s.failed > 0 || n == 0 || tail > limit {
			p = math.Inf(1)
		}
		fmt.Printf("perfbench: capacity step %.0f ops/s: p99 %.2f ms, failed %d, tail %.1f ms\n",
			rate, ms(p), s.failed, ms(tail))
		time.Sleep(200 * time.Millisecond)
		return p
	}
	lo, hi := b.w.Rate, b.w.Rate
	plo, phi := p0, p0
	if plo <= limit {
		for i := 0; i < capSteps && phi <= limit; i++ {
			lo, plo = hi, phi
			hi *= capFactor
			phi = try(hi)
		}
	} else {
		for i := 0; i < capSteps && plo > limit; i++ {
			hi, phi = lo, plo
			lo /= capFactor
			plo = try(lo)
		}
	}
	switch {
	case plo > limit:
		return lo // even the lowest rate missed the limit
	case phi <= limit:
		return hi // no step missed it
	case math.IsInf(phi, 1) || plo <= 0:
		return lo
	}
	f := (math.Log(limit) - math.Log(plo)) / (math.Log(phi) - math.Log(plo))
	return lo * math.Pow(hi/lo, f)
}

const (
	capStep   = 2 * time.Second
	capFactor = 1.5
	capSteps  = 5
)
