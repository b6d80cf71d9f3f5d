package main

import (
	"fmt"
	"strings"
	"time"

	"metacomm/internal/ldap"
	"metacomm/internal/ldapclient"
)

// driven is what driving a workload's fixed-rate phase measured.
type driven struct {
	rep *report
	// reads and writes hold the latencies of the workload's reads (the
	// fixed phase's searches, write_through's read-back, or mesh_join's
	// reads of B) and of its measured writes.
	reads, writes Histogram
	late          Histogram
	// Windowed percentiles of reads and writes (see phaseStats).
	readP50, readP99, writeP50, writeP99 float64
	cpu                                  time.Duration
	completed                            uint64
	joinS                                float64

	g     *generator // connections to the (first) node, kept for capacity
	gb    *generator // mesh_join: connection to B
	nodeB *server
	st    *streamState
	// phases are the measured phases; the traced run joins their ops to
	// spans.
	phases []*phase
}

func (d *driven) close() {
	d.g.close()
	if d.gb != nil {
		d.gb.close()
	}
	if d.nodeB != nil {
		d.nodeB.stop()
	}
}

func reportOf(d *driven) *report {
	if d == nil {
		return nil
	}
	return d.rep
}

// add counts a phase's ops into the report; the first wrong answer makes
// the run fail.
func (d *driven) add(s phaseStats) error {
	d.rep.Attempted += s.attempted
	d.rep.Failed += s.failed
	if s.failed > 0 {
		d.rep.Correct = false
		return fmt.Errorf("%d of %d operations failed; first: %s", s.failed, s.attempted, s.firstBad)
	}
	return nil
}

// control sends a command to a traced assembly (no-op for stock servers).
func control(traced bool, s *server, cmd string) error {
	if !traced {
		return nil
	}
	_, err := s.command(cmd)
	return err
}

// driveSingle runs read_mostly's or write_through's fixed-rate phase, and
// write_through's read-back and device check, against s.
func (b *bench) driveSingle(s *server, traced bool) (*driven, error) {
	g, err := dialGenerator([]string{s.ltap, s.ltap})
	if err != nil {
		return nil, err
	}
	d := &driven{rep: &report{Correct: true, Metrics: map[string]metric{}}, g: g, st: newStreamState()}
	ops := b.assign(stream(b.rng(1), b.w, b.persons, b.w.Rate, b.dur, 0, d.st))
	if err := control(traced, s, "begin fixed"); err != nil {
		return d, err
	}
	cpu0 := s.cpuTime()
	ph := g.run(ops, 30*time.Second)
	d.cpu = s.cpuTime() - cpu0
	d.phases = append(d.phases, ph)
	fixed := ph.stats()
	d.writes, d.reads, d.late = fixed.writes, fixed.reads, fixed.late
	d.setWindowed(fixed, fixed)
	d.setWindowed(fixed, fixed)
	d.completed = fixed.reads.Count() + fixed.writes.Count()
	if err := d.add(fixed); err != nil {
		return d, err
	}
	if b.name == "write_through" {
		// Read back every touched person through LTAP, open loop: the
		// directory side of the output check, and the workload's reads.
		rb := b.assign(readStream(b.rng(2), d.st.touched, b.w.ReadbackRate, 0, d.st.readback))
		ph := g.run(rb, 30*time.Second)
		d.phases = append(d.phases, ph)
		back := ph.stats()
		d.reads = back.reads
		d.setWindowed(back, fixed)
		if err := d.add(back); err != nil {
			return d, err
		}
	}
	if err := control(traced, s, "end fixed"); err != nil {
		return d, err
	}
	if b.name == "write_through" {
		if err := checkDevices(s, d.st); err != nil {
			d.rep.Correct = false
			return d, fmt.Errorf("device check: %w", err)
		}
	}
	fmt.Printf("perfbench: fixed phase %d ops, generator late p99 %.3f ms max %.3f ms\n",
		d.completed, ms(d.late.Quantile(0.99)), ms(float64(d.late.Max())))
	return d, nil
}

// driveMesh runs mesh_join. Writes stream to A from B's launch; B is
// probed over its own connection until it serves a value written on A
// after its launch and holds the whole population (join_s), then until its
// CPU settles, which ends the join phase. The measured phase follows:
// writes to A and reads of B, both at their rates for the phase length.
// Finally A's and B's trees must be identical.
func (b *bench) driveMesh(a *server, startB func() (*server, error), traced bool) (*driven, error) {
	g, err := dialGenerator([]string{a.ltap})
	if err != nil {
		return nil, err
	}
	d := &driven{rep: &report{Correct: true, Metrics: map[string]metric{}}, g: g, st: newStreamState()}
	writes := stream(b.rng(1), b.w, b.persons, b.w.Rate, joinTimeout, 0, d.st)
	if len(writes) == 0 {
		return d, fmt.Errorf("empty write stream")
	}
	t0 := time.Now()
	stop := make(chan struct{})
	done := make(chan *phase, 1)
	go func() { done <- g.runUntil(writes, 30*time.Second, stop) }()
	joinPhase := func() (*phase, error) {
		close(stop)
		ph := <-done
		s := ph.stats()
		return ph, d.add(s)
	}
	if d.nodeB, err = startB(); err != nil {
		joinPhase()
		return d, err
	}
	if d.joinS, err = b.awaitJoin(d.nodeB, writes, t0); err != nil {
		joinPhase()
		return d, err
	}
	settle(d.nodeB)
	jph, err := joinPhase()
	if err != nil {
		return d, err
	}
	js := jph.stats()
	fmt.Printf("perfbench: join %.2fs; writes on A during the join: %d, p50 %.3f ms, p99 %.3f ms\n",
		d.joinS, js.writes.Count(), ms(js.writeP50), ms(js.writeP99))

	if d.gb, err = dialGenerator([]string{d.nodeB.ltap}); err != nil {
		return d, err
	}
	if err := control(traced, a, "begin fixed"); err != nil {
		return d, err
	}
	if err := control(traced, d.nodeB, "begin fixed"); err != nil {
		return d, err
	}
	cpuA0, cpuB0 := a.cpuTime(), d.nodeB.cpuTime()
	wops := stream(b.rng(2), b.w, b.persons, b.w.Rate, b.dur, 0, d.st)
	wdone := make(chan *phase, 1)
	go func() { wdone <- g.run(wops, 30*time.Second) }()
	readDef := workloadDef{Mix: map[string]float64{"search_base": 1}, Keys: keyDef{Dist: "uniform"}}
	rph := d.gb.run(stream(b.rng(3), readDef, b.persons, b.w.ProbeRate, b.dur, 0, d.st), 30*time.Second)
	wph := <-wdone
	d.cpu = a.cpuTime() - cpuA0 + d.nodeB.cpuTime() - cpuB0
	d.phases = append(d.phases, wph, rph)
	ws, rs := wph.stats(), rph.stats()
	d.writes, d.reads, d.late = ws.writes, rs.reads, ws.late
	d.setWindowed(rs, ws)
	d.completed = ws.writes.Count() + rs.reads.Count()
	if err := d.add(ws); err != nil {
		return d, err
	}
	if err := d.add(rs); err != nil {
		return d, err
	}
	if err := control(traced, a, "end fixed"); err != nil {
		return d, err
	}
	if err := control(traced, d.nodeB, "end fixed"); err != nil {
		return d, err
	}
	if err := awaitSameTrees(a.ltap, d.nodeB.ltap, 30*time.Second); err != nil {
		d.rep.Correct = false
		return d, fmt.Errorf("tree check: %w", err)
	}
	return d, nil
}

// joinTimeout bounds a join; the join phase's write stream is this long
// and is cut when the join ends.
const joinTimeout = 60 * time.Second

// awaitJoin probes B until it serves a roomNumber written to A after t0 on
// the first written person, and holds every seeded entry (the snapshot
// streams by segment while the change tail flows, so a fresh value can land
// before the whole population has). It returns the seconds since t0.
func (b *bench) awaitJoin(nodeB *server, writes []op, t0 time.Time) (float64, error) {
	first := writes[0].num
	want := map[string]bool{}
	for _, o := range writes {
		if o.num == first {
			want[o.val] = true
		}
	}
	c, err := ldapclient.Dial(nodeB.ltap)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	for seen := false; ; time.Sleep(5 * time.Millisecond) {
		if time.Since(t0) > joinTimeout {
			return 0, fmt.Errorf("B had not joined after %s", joinTimeout)
		}
		if !seen {
			e, err := c.SearchOne(&ldap.SearchRequest{BaseDN: personDN(first), Scope: ldap.ScopeBaseObject})
			seen = err == nil && e != nil && strings.EqualFold(e.DN, personDN(first)) && want[e.First("roomNumber")]
			continue
		}
		es, err := c.Search(&ldap.SearchRequest{BaseDN: "o=Lucent", Scope: ldap.ScopeWholeSubtree})
		if err == nil && len(es) >= b.persons+1 {
			return time.Since(t0).Seconds(), nil
		}
	}
}

// settle waits, up to a bound, until the server uses less than a tenth of
// a CPU over a quarter second: a joined node is still fanning the snapshot
// out to its devices, and the measured phase starts after that.
func settle(s *server) {
	const tick = 250 * time.Millisecond
	prev := s.cpuTime()
	for end := time.Now().Add(20 * time.Second); time.Now().Before(end); {
		time.Sleep(tick)
		cur := s.cpuTime()
		if cur-prev < tick/10 {
			return
		}
		prev = cur
	}
}

func (d *driven) setWindowed(reads, writes phaseStats) {
	d.readP50, d.readP99 = reads.readP50, reads.readP99
	d.writeP50, d.writeP99 = writes.writeP50, writes.writeP99
}

// limited returns the windowed percentile a workload's latency limit
// applies to.
func (d *driven) limited(w workloadDef) float64 {
	if w.Limit.Metric == "read_p99_ms" {
		return d.readP99
	}
	return d.writeP99
}

// endToEnd fills in the end-to-end metrics: the steady ones into the
// result line, the tail percentiles and capacity into Info.
func (d *driven) endToEnd(setup, capacity, rssMB float64) *report {
	m := d.rep.Metrics
	m["setup_s"] = metric{setup, "s"}
	m["read_p50_ms"] = metric{ms(d.readP50), "ms"}
	m["write_p50_ms"] = metric{ms(d.writeP50), "ms"}
	m["server_cpu_us_per_op"] = metric{float64(d.cpu.Microseconds()) / float64(d.completed), "us"}
	m["server_peak_rss_mb"] = metric{rssMB, "MB"}
	d.rep.Info = map[string]metric{
		"read_p99_ms":    {ms(d.readP99), "ms"},
		"write_p99_ms":   {ms(d.writeP99), "ms"},
		"capacity_ops_s": {capacity, "ops/s"},
	}
	if capacity <= 0 {
		delete(d.rep.Info, "capacity_ops_s")
	}
	if d.joinS > 0 {
		d.rep.Info["join_s"] = metric{d.joinS, "s"}
	}
	return d.rep
}
