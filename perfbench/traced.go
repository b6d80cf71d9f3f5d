package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
	"metacomm/internal/ldapserver"
	"metacomm/internal/lexpress"
	"metacomm/internal/ltap"
	"metacomm/internal/replica"
	"metacomm/internal/um"
)

// snapshot is every public stats accessor of a traced assembly at one
// instant, plus the Go runtime's allocation and CPU counters.
type snapshot struct {
	UM       um.Stats
	Gateway  ltap.GatewayStats
	Journal  directory.JournalStats
	LTAPWire ldapserver.WireStats
	DirWire  ldapserver.WireStats
	Replica  replica.Stats
	Allocs   uint64  // heap objects allocated
	GCCPU    float64 // CPU seconds spent in GC
	CPU      float64 // CPU seconds, all classes
}

// traceFile is what a traced assembly writes when it exits.
type traceFile struct {
	Setup setupTimes          `json:"setup"`
	Snaps map[string]snapshot `json:"snaps"`
	Spans []span              `json:"spans"`
	// Propagations and PropagateNs cover UM.PropagateRemote calls.
	Propagations uint64 `json:"propagations"`
	PropagateNs  uint64 `json:"propagate_ns"`
	// Events is how many trigger events were captured; TranslateNs is the
	// mean time to replay one through the closure and both device
	// mappings, measured after the run.
	Events      int     `json:"events"`
	TranslateNs float64 `json:"translate_ns"`
}

func (s *stack) snapshot() snapshot {
	sn := snapshot{
		UM:       s.UM.Stats(),
		Gateway:  s.Gateway.Stats(),
		Journal:  s.DIT.JournalStats(),
		LTAPWire: s.ltapServer.WireStats(),
		DirWire:  s.dirServer.WireStats(),
	}
	if s.Replicator != nil {
		sn.Replica = s.Replicator.Stats()
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	sn.Allocs = samples[0].Value.Uint64()
	sn.GCCPU = samples[1].Value.Float64()
	sn.CPU = samples[2].Value.Float64()
	return sn
}

// serveTraced runs the traced assembly as a server process. It prints its
// addresses the way metacommd does, then serves control commands on stdin,
// each answered with one "ctl ..." line: "begin NAME" snapshots the stats
// and starts recording spans, "end NAME" stops recording and snapshots
// again. When stdin closes (or on SIGTERM) it writes the trace file and
// exits.
func serveTraced(args []string) {
	fs := flag.NewFlagSet("serve-traced", flag.ExitOnError)
	data := fs.String("data", "", "data directory")
	ltapAddr := fs.String("ltap", "", "LTAP listen address")
	repl := fs.String("replication", "", "replication listen address")
	node := fs.Uint("node-id", 0, "replication node id")
	peers := fs.String("peers", "", "comma-separated peer replication addresses")
	out := fs.String("trace-out", "", "trace file written at exit")
	fs.Parse(args)
	cfg := stackConfig{DataDir: *data, LTAPAddr: *ltapAddr, ReplicationAddr: *repl, NodeID: uint32(*node)}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	rec := newRecorder()
	st, err := startStack(cfg, rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve-traced:", err)
		os.Exit(1)
	}
	fmt.Printf("LDAP (via LTAP):   %s\n", st.LTAPAddr)
	fmt.Printf("Definity PBX:      %s\n", st.PBX.Addr())
	fmt.Printf("messaging platform:%s\n", st.MP.Addr())
	tf := &traceFile{Setup: st.setup, Snaps: map[string]snapshot{}}
	var once sync.Once
	finish := func() {
		once.Do(func() {
			rec.on.Store(false)
			rec.mu.Lock()
			tf.Spans = rec.spans
			events := rec.events
			rec.mu.Unlock()
			if st.propagations.Load() == 0 {
				probePropagate(st, events)
			}
			tf.Propagations, tf.PropagateNs = st.propagations.Load(), st.propagateNs.Load()
			tf.Events = len(events)
			tf.TranslateNs = replayTranslate(st.Library, events)
			st.Close()
			b, err := json.Marshal(tf)
			if err == nil {
				err = os.WriteFile(*out, b, 0o644)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "serve-traced: writing trace:", err)
				os.Exit(1)
			}
			os.Exit(0)
		})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sig
		finish()
	}()
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			fmt.Println("ctl error: want a command and a name")
			continue
		}
		switch f[0] {
		case "begin":
			tf.Snaps["begin "+f[1]] = st.snapshot()
			rec.on.Store(true)
		case "end":
			rec.on.Store(false)
			tf.Snaps["end "+f[1]] = st.snapshot()
		}
		fmt.Println("ctl ok")
	}
	finish()
}

// probePropagate times UM.PropagateRemote on a node that replicated
// nothing: for up to 100 of the run's written entries it propagates the
// entry's current image as an unchanged remote write, after the measured
// phase.
func probePropagate(st *stack, events []ltap.Event) {
	for i, ev := range events {
		if i == 100 {
			return
		}
		name, err := dn.Parse(ev.DN)
		if err != nil {
			continue
		}
		e, err := st.DIT.Get(name)
		if err != nil {
			continue
		}
		img := recordOf(e.Attrs)
		t0 := time.Now()
		st.UM.PropagateRemote(ev.DN, img, img)
		st.propagations.Add(1)
		st.propagateNs.Add(uint64(time.Since(t0)))
	}
}

// replayTranslate replays the captured trigger events through the closure
// and both device mappings, as the UM's update sequence does, and returns
// the mean wall time per event.
func replayTranslate(lib *lexpress.Library, events []ltap.Event) float64 {
	closure, _ := lib.Get("LDAPClosure")
	toPBX, _ := lib.Get("LDAPToPBX")
	toMP, _ := lib.Get("LDAPToMP")
	if len(events) == 0 || closure == nil || toPBX == nil || toMP == nil {
		return 0
	}
	t0 := time.Now()
	for _, ev := range events {
		var nw lexpress.Record
		var explicit []string
		op := lexpress.OpModify
		switch ev.Kind {
		case ltap.EventAdd:
			op, nw = lexpress.OpAdd, ev.Attrs.Clone()
			explicit = nw.Attrs()
		case ltap.EventDelete:
			op = lexpress.OpDelete
		default:
			if ev.Old == nil {
				continue
			}
			nw = ev.Old.Clone()
			for _, c := range ev.Changes {
				if lc, err := c.ToLDAP(); err == nil && lc.Op == ldap.ModReplace {
					nw.Set(lc.Attribute.Type, lc.Attribute.Values...)
				}
				explicit = append(explicit, c.Attr)
			}
		}
		if nw != nil {
			changed, _ := closure.ApplyClosure(ev.Old, nw, explicit)
			explicit = append(explicit, changed...)
		}
		d := lexpress.Descriptor{Source: "ldap", Op: op, Key: ev.DN, Old: ev.Old, New: nw, Explicit: explicit}
		toPBX.Translate(d)
		toMP.Translate(d)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(len(events))
}

func readTrace(path string) (*traceFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, err
	}
	return &tf, nil
}

// driveOnce starts fresh servers, stock metacommd or the traced assembly,
// on pristine copies, drives the workload once and stops them. It returns
// the traced servers' trace files, serving node first.
func (b *bench) driveOnce(traced bool) (*driven, []string, error) {
	m, err := newMeshNodes()
	if err != nil {
		return nil, nil, err
	}
	var traces []string
	start := func(pristine string, extra ...string) (*server, error) {
		s, out, err := b.start(traced, pristine, extra...)
		if err == nil && traced {
			traces = append(traces, out)
		}
		return s, err
	}
	var a *server
	var d *driven
	if b.name == "mesh_join" {
		if a, err = start(b.pristine, m.argsA()...); err != nil {
			return nil, nil, err
		}
		d, err = b.driveMesh(a, func() (*server, error) { return start("", m.argsB()...) }, traced)
	} else {
		if a, err = start(b.pristine); err != nil {
			return nil, nil, err
		}
		d, err = b.driveSingle(a, traced)
	}
	if d != nil {
		d.close()
	}
	a.stop() // a traced server writes its trace as it stops
	return d, traces, err
}

// traced drives the workload against stock metacommd, for the untraced
// reference latencies, then against the traced assembly, and reports the
// per-layer metrics.
func (b *bench) traced() (*report, error) {
	ref, _, err := b.driveOnce(false)
	if err != nil {
		return reportOf(ref), err
	}
	d, traces, err := b.driveOnce(true)
	if err != nil {
		return reportOf(d), err
	}
	var tfs []*traceFile
	for _, p := range traces {
		tf, err := readTrace(p)
		if err != nil {
			return d.rep, fmt.Errorf("trace of %s: %w", p, err)
		}
		tfs = append(tfs, tf)
	}
	d.rep.Metrics = b.perLayer(d, ref, tfs)
	return d.rep, nil
}

// perLayer computes the per-layer metrics. tfs[0] is the serving node (A);
// mesh_join's B is tfs[1]. Span means cover the measured phase; stats come
// from the "begin fixed" and "end fixed" snapshots. Times are means, so
// that stage times add up: ldapserver.wait_us runs from the scheduled send
// to the LTAP handler, um.writeback_us from the last device apply to the
// end of the UM's update, and um.propagate_remote_us is the wall time of
// the UM.PropagateRemote call (which queues the fan-out).
func (b *bench) perLayer(d, ref *driven, tfs []*traceFile) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	traces := make([]*trace, len(tfs))
	for i, tf := range tfs {
		traces[i] = newTrace(tf.Spans)
	}

	// Client-side join: each op's root span on the node it was sent to.
	var wait, stageSum, latency, nOps float64
	var searchSelf, trapSelf, actionWire, umSelf, writeBack meanAcc
	for _, ph := range d.phases {
		t0 := ph.start.UnixNano()
		for i := range ph.res {
			r := &ph.res[i]
			if !r.ok() {
				continue
			}
			node := ph.g.node[ph.ops[i].target]
			if ph.g == d.gb {
				node = 1
			}
			if node >= len(traces) {
				continue
			}
			t := traces[node]
			root := t.root(opID(personDN(ph.ops[i].num), r.ord))
			if root < 0 {
				continue
			}
			rs := t.spans[root]
			sched, done := t0+int64(r.sched), t0+int64(r.done)
			w := float64(rs.Start - sched)
			reply := float64(done - rs.End)
			wait += w
			stageSum += w + float64(t.blocking(root)) + reply
			latency += float64(done - sched)
			nOps++
			if rs.Name == "ltap.search" {
				searchSelf.add(float64(t.selfTime(root)))
				continue
			}
			for _, c := range t.children[root] {
				if t.spans[c].Name != "ltap.action" {
					continue
				}
				trapSelf.add(float64(rs.dur() - t.spans[c].dur()))
				for _, u := range t.children[c] {
					if t.spans[u].Name == "um.update" {
						actionWire.add(float64(t.spans[c].dur() - t.spans[u].dur()))
						umSelf.add(float64(t.selfTime(u)))
						if end := lastDeviceEnd(t, u); end > 0 {
							writeBack.add(float64(t.spans[u].End - end))
						}
					}
				}
			}
		}
	}
	put("ldapserver.wait_us", safeDiv(wait, nOps)/1e3, "us")
	put("trace.stage_sum_frac", safeDiv(stageSum, latency), "ratio")
	put("ltap.search_self_us", searchSelf.mean()/1e3, "us")
	put("ltap.trap_self_us", trapSelf.mean()/1e3, "us")
	put("ltap.action_wire_us", actionWire.mean()/1e3, "us")
	put("um.update_self_us", umSelf.mean()/1e3, "us")
	put("um.writeback_us", writeBack.mean()/1e3, "us")

	// Span means by layer, over every node.
	var backendSearch, dirSearch, dirWrite, pbxApply, mpApply meanAcc
	for _, t := range traces {
		for i := range t.spans {
			s := &t.spans[i]
			switch {
			case s.Name == "ltap.backend" && s.Parent >= 0 && t.spans[s.Parent].Name == "ltap.search":
				backendSearch.add(float64(s.dur()))
			case s.Name == "dir.search":
				dirSearch.add(float64(s.dur()))
			case s.Name == "dir.write":
				dirWrite.add(float64(s.dur()))
			case s.Name == "device.pbx":
				pbxApply.add(float64(s.dur()))
			case s.Name == "device.msgplat":
				mpApply.add(float64(s.dur()))
			}
		}
	}
	put("ltap.backend_search_us", backendSearch.mean()/1e3, "us")
	put("directory.search_us", dirSearch.mean()/1e3, "us")
	put("directory.write_us", dirWrite.mean()/1e3, "us")
	put("device.pbx_apply_us", pbxApply.mean()/1e3, "us")
	put("device.msgplat_apply_us", mpApply.mean()/1e3, "us")

	// Stats deltas of the serving node over the fixed phase.
	a0, a1 := tfs[0].Snaps["begin fixed"], tfs[0].Snaps["end fixed"]
	upd := float64(a1.UM.UpdatesProcessed - a0.UM.UpdatesProcessed)
	jobs := upd + float64(a1.UM.RemoteApplies-a0.UM.RemoteApplies)
	put("um.queue_wait_us", safeDiv(float64(a1.UM.EnqueueWaitNs-a0.UM.EnqueueWaitNs), jobs)/1e3, "us")
	put("um.directory_write_us", safeDiv(float64(a1.UM.DirectoryApplyNs-a0.UM.DirectoryApplyNs), upd)/1e3, "us")
	put("um.busy_rejections", float64(a1.UM.QueueRejections-a0.UM.QueueRejections), "count")
	put("device.applies_per_write", safeDiv(float64(a1.UM.DeviceApplies-a0.UM.DeviceApplies), upd), "ratio")
	hits := float64(a1.Gateway.Cache.Hits - a0.Gateway.Cache.Hits)
	misses := float64(a1.Gateway.Cache.Misses - a0.Gateway.Cache.Misses)
	put("ltap.cache_hit_rate", safeDiv(hits, hits+misses), "ratio")
	put("ldapserver.ltap_responses_per_flush", safeDiv(float64(a1.LTAPWire.ResponsesWritten-a0.LTAPWire.ResponsesWritten),
		float64(a1.LTAPWire.Flushes-a0.LTAPWire.Flushes)), "ratio")
	put("ldapserver.dir_responses_per_flush", safeDiv(float64(a1.DirWire.ResponsesWritten-a0.DirWire.ResponsesWritten),
		float64(a1.DirWire.Flushes-a0.DirWire.Flushes)), "ratio")
	appends := float64(a1.Journal.Appends - a0.Journal.Appends)
	put("directory.commit_us", safeDiv(float64(a1.Journal.CommitNs-a0.Journal.CommitNs), appends)/1e3, "us")
	put("directory.recs_per_fsync", safeDiv(appends, float64(a1.Journal.Fsyncs-a0.Journal.Fsyncs)), "ratio")
	put("directory.journal_bytes_per_write", safeDiv(float64(a1.Journal.Bytes-a0.Journal.Bytes), appends), "bytes")
	put("directory.attach_s", tfs[0].Setup.AttachS, "s")
	put("directory.index_s", tfs[0].Setup.IndexS, "s")
	put("um.sync_s", tfs[0].Setup.SyncS, "s")
	put("lexpress.translate_us", tfs[0].TranslateNs/1e3, "us")

	// Replication (mesh_join): B's propagation of the join and its link's
	// record counts; zero on single-node workloads.
	var propagations, propagateNs, joinApplied, applied, noops float64
	for i, tf := range tfs {
		propagations += float64(tf.Propagations)
		propagateNs += float64(tf.PropagateNs)
		for _, p := range tf.Snaps["end fixed"].Replica.Peers {
			applied += float64(p.Applied)
			noops += float64(p.Noops)
		}
		if i == 1 {
			// B's link counts at the start of the measured phase: the join.
			for _, p := range tf.Snaps["begin fixed"].Replica.Peers {
				joinApplied += float64(p.Applied)
			}
		}
	}
	put("um.propagate_remote_us", safeDiv(propagateNs, propagations)/1e3, "us")
	put("replica.join_entries_per_s", safeDiv(joinApplied, d.joinS), "1/s")
	put("replica.applied", applied, "count")
	put("replica.noops", noops, "count")

	// Runtime of the traced process(es).
	var allocs, gcCPU, cpu float64
	for _, tf := range tfs {
		s0, s1 := tf.Snaps["begin fixed"], tf.Snaps["end fixed"]
		allocs += float64(s1.Allocs - s0.Allocs)
		gcCPU += s1.GCCPU - s0.GCCPU
		cpu += s1.CPU - s0.CPU
	}
	put("server.allocs_per_op", safeDiv(allocs, float64(d.completed)), "count")
	put("server.gc_cpu_frac", safeDiv(gcCPU, cpu), "ratio")

	// Tracing overhead: traced over untraced median, minus one.
	put("trace.overhead_read_p50_frac", safeDiv(d.reads.Quantile(0.5), ref.reads.Quantile(0.5))-1, "ratio")
	put("trace.overhead_write_p50_frac", safeDiv(d.writes.Quantile(0.5), ref.writes.Quantile(0.5))-1, "ratio")

	for k, v := range codecCost(d.phases) {
		out[k] = v
	}
	return out
}

// lastDeviceEnd returns when the last device apply under UM span u ended
// (0 when it has none): what follows is the update's write-back stage.
func lastDeviceEnd(t *trace, u int) int64 {
	var end int64
	for _, c := range t.children[u] {
		if n := t.spans[c].Name; (n == "device.pbx" || n == "device.msgplat") && t.spans[c].End > end {
			end = t.spans[c].End
		}
	}
	return end
}

type meanAcc struct{ sum, n float64 }

func (m *meanAcc) add(v float64) { m.sum += v; m.n++ }
func (m *meanAcc) mean() float64 { return safeDiv(m.sum, m.n) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// codecCost times the wire codec on the run's own requests: encoding each
// with Message.AppendTo into a reused buffer, and decoding the encoded
// stream with ldap.Reader.ReadMessage.
func codecCost(phases []*phase) map[string]metric {
	var msgs []*ldap.Message
	for _, ph := range phases {
		for i := range ph.ops {
			msgs = append(msgs, &ldap.Message{ID: int32(i + 1), Op: ph.ops[i].request()})
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	const rounds = 5
	buf := make([]byte, 0, 4096)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range msgs {
			buf = m.AppendTo(buf[:0])
		}
	}
	enc := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	var stream bytes.Buffer
	for _, m := range msgs {
		stream.Write(m.AppendTo(nil))
	}
	raw := stream.Bytes()
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		rd := ldap.NewReader(bytes.NewReader(raw))
		for range msgs {
			if _, err := rd.ReadMessage(); err != nil {
				break
			}
		}
	}
	dec := time.Since(t0)
	n := float64(rounds * len(msgs))
	return map[string]metric{
		"ldap.encode_ns_per_msg":     {float64(enc.Nanoseconds()) / n, "ns"},
		"ldap.encode_allocs_per_msg": {float64(ms1.Mallocs-ms0.Mallocs) / n, "count"},
		"ber.decode_ns_per_msg":      {float64(dec.Nanoseconds()) / n, "ns"},
	}
}
