package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"metacomm/internal/ldap"
)

// generator drives open-loop op streams over a fixed set of LDAP
// connections. Each connection pipelines: the scheduler writes a request
// when it is due, and the connection's reader matches responses to requests
// by message ID, so a slow response never delays a later send.
type generator struct {
	conns []*genConn
	// node maps a connection to its server: connections to one address
	// share a node, and per-DN ordering holds per node.
	node []int
	// beforeSend, when set, runs on the scheduler before op i is submitted
	// (tests inject stalls with it).
	beforeSend func(i int)

	// ordinal numbers the ops sent on each (node, DN) over the generator's
	// life, as the traced assembly numbers the ops it serves.
	omu     sync.Mutex
	ordinal map[int]int
}

func (g *generator) nextOrdinal(k int) int {
	g.omu.Lock()
	defer g.omu.Unlock()
	n := g.ordinal[k]
	g.ordinal[k] = n + 1
	return n
}

type genConn struct {
	nc  net.Conn
	wmu sync.Mutex
	bw  *bufio.Writer
	buf []byte
	id  int32

	pmu     sync.Mutex
	pending map[int32]*inflight
}

// inflight is one sent, unanswered request.
type inflight struct {
	ph      *phase
	i       int
	entries int
	wrongDN string
	missing string
}

func dialGenerator(addrs []string) (*generator, error) {
	g := &generator{ordinal: map[int]int{}}
	nodes := map[string]int{}
	for _, a := range addrs {
		if _, ok := nodes[a]; !ok {
			nodes[a] = len(nodes)
		}
		g.node = append(g.node, nodes[a])
		nc, err := net.Dial("tcp", a)
		if err != nil {
			g.close()
			return nil, err
		}
		c := &genConn{nc: nc, bw: bufio.NewWriterSize(nc, 16<<10), pending: map[int32]*inflight{}}
		g.conns = append(g.conns, c)
		go c.readLoop()
	}
	return g, nil
}

func (g *generator) close() {
	for _, c := range g.conns {
		c.nc.Close()
	}
}

// opResult is what the generator measured for one op; times are from the
// phase start.
type opResult struct {
	sched, sent, done time.Duration
	// queued is set when the op waited for an earlier op on its DN.
	queued bool
	// ord is the op's ordinal among the generator's ops on its DN and node.
	ord int
	// bad describes a wrong answer ("" when the answer was right).
	bad      string
	finished bool
}

// ok reports a right answer; checkAnswer has judged the result code.
func (r *opResult) ok() bool { return r.finished && r.bad == "" }

// phase is one op stream being run.
type phase struct {
	ops   []op
	res   []opResult
	start time.Time

	mu      sync.Mutex
	busy    map[int]bool
	waiting map[int][]int
	left    int
	done    chan struct{}
	g       *generator
}

func (ph *phase) dnKey(i int) int { return ph.ops[i].num<<2 | ph.g.node[ph.ops[i].target] }

// run schedules ops open-loop from now and waits until every op has been
// answered or drain has passed since the last scheduled send.
func (g *generator) run(ops []op, drain time.Duration) *phase {
	return g.runUntil(ops, drain, nil)
}

// runUntil is run, except that once stop is closed the ops not yet due are
// dropped from the phase.
func (g *generator) runUntil(ops []op, drain time.Duration, stop <-chan struct{}) *phase {
	ph := &phase{ops: ops, res: make([]opResult, len(ops)), busy: map[int]bool{},
		waiting: map[int][]int{}, left: len(ops),
		done: make(chan struct{}), g: g}
	if len(ops) == 0 {
		close(ph.done)
		return ph
	}
	ph.start = time.Now()
	for i := range ops {
		if closed(stop) {
			ph.cut(i)
			break
		}
		ph.res[i].sched = ops[i].at
		sleepUntil(ph.start.Add(ops[i].at))
		if g.beforeSend != nil {
			g.beforeSend(i)
		}
		ph.submit(i)
	}
	select {
	case <-ph.done:
	case <-time.After(drain):
	}
	ph.mu.Lock()
	for i := range ph.res {
		if !ph.res[i].finished && ph.res[i].bad == "" {
			ph.res[i].bad = "no response"
		}
	}
	ph.mu.Unlock()
	return ph
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// cut drops the ops from i on, none of them sent yet, from the phase.
func (ph *phase) cut(i int) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.left -= len(ph.ops) - i
	ph.ops, ph.res = ph.ops[:i], ph.res[:i]
	if ph.left == 0 {
		close(ph.done)
	}
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer would do for long waits, but its wakeups are only as fine as the
// netpoller's millisecond timeout, which would add up to a millisecond of
// generator lateness to every op.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// submit sends op i now, or queues it behind the op in flight on its DN.
func (ph *phase) submit(i int) {
	k := ph.dnKey(i)
	ph.mu.Lock()
	if ph.busy[k] {
		ph.waiting[k] = append(ph.waiting[k], i)
		ph.res[i].queued = true
		ph.mu.Unlock()
		return
	}
	ph.busy[k] = true
	ph.res[i].ord = ph.g.nextOrdinal(k)
	ph.mu.Unlock()
	ph.send(i)
}

func (ph *phase) send(i int) {
	o := &ph.ops[i]
	c := ph.g.conns[o.target]
	c.wmu.Lock()
	c.id++
	id := c.id
	c.pmu.Lock()
	c.pending[id] = &inflight{ph: ph, i: i}
	c.pmu.Unlock()
	c.buf = (&ldap.Message{ID: id, Op: o.request()}).AppendTo(c.buf[:0])
	ph.res[i].sent = time.Since(ph.start)
	_, err := c.bw.Write(c.buf)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.pmu.Lock()
		f := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if f != nil {
			ph.finish(f, "send: "+err.Error())
		}
	}
}

// finish records op f's answer and releases its DN to the next queued op.
func (ph *phase) finish(f *inflight, bad string) {
	now := time.Since(ph.start)
	k := ph.dnKey(f.i)
	next := -1
	ph.mu.Lock()
	r := &ph.res[f.i]
	r.done, r.bad, r.finished = now, bad, true
	if q := ph.waiting[k]; len(q) > 0 {
		next = q[0]
		ph.waiting[k] = q[1:]
		ph.res[next].ord = ph.g.nextOrdinal(k)
	} else {
		delete(ph.busy, k)
	}
	ph.left--
	if ph.left == 0 {
		close(ph.done)
	}
	ph.mu.Unlock()
	if next >= 0 {
		ph.send(next)
	}
}

func (c *genConn) readLoop() {
	rd := ldap.NewReader(c.nc)
	for {
		msg, err := rd.ReadMessage()
		if err != nil {
			c.pmu.Lock()
			left := c.pending
			c.pending = map[int32]*inflight{}
			c.pmu.Unlock()
			for _, f := range left {
				f.ph.finish(f, "connection: "+err.Error())
			}
			return
		}
		c.pmu.Lock()
		f := c.pending[msg.ID]
		if _, entry := msg.Op.(*ldap.SearchResultEntry); !entry {
			delete(c.pending, msg.ID)
		}
		c.pmu.Unlock()
		if f == nil {
			continue
		}
		o := &f.ph.ops[f.i]
		var res ldap.Result
		switch m := msg.Op.(type) {
		case *ldap.SearchResultEntry:
			f.entries++
			if !strings.EqualFold(m.DN, personDN(o.num)) {
				f.wrongDN = m.DN
			}
			f.missing = missingValues(o.want, m.Attributes)
			continue
		case *ldap.SearchResultDone:
			res = m.Result
		case *ldap.ModifyResponse:
			res = m.Result
		case *ldap.AddResponse:
			res = m.Result
		case *ldap.DeleteResponse:
			res = m.Result
		default:
			f.ph.finish(f, fmt.Sprintf("unexpected response %T", msg.Op))
			continue
		}
		f.ph.finish(f, checkAnswer(o, f, res))
	}
}

// checkAnswer says what is wrong with an op's answer ("" when right).
func checkAnswer(o *op, f *inflight, res ldap.Result) string {
	if o.kind != opSearch {
		if res.Code != ldap.ResultSuccess {
			return fmt.Sprintf("%s %s: %s %s", o.kind, personDN(o.num), res.Code, res.Message)
		}
		return ""
	}
	if o.absent {
		if res.Code != ldap.ResultNoSuchObject || f.entries != 0 {
			return fmt.Sprintf("search %s: want no entry, got %d entries (%s)", personDN(o.num), f.entries, res.Code)
		}
		return ""
	}
	switch {
	case res.Code != ldap.ResultSuccess:
		return fmt.Sprintf("search %s: %s %s", personDN(o.num), res.Code, res.Message)
	case f.entries != 1:
		return fmt.Sprintf("search %s: %d entries", personDN(o.num), f.entries)
	case f.wrongDN != "":
		return fmt.Sprintf("search %s: returned %s", personDN(o.num), f.wrongDN)
	case f.missing != "":
		return fmt.Sprintf("search %s: %s", personDN(o.num), f.missing)
	}
	return ""
}

func missingValues(want map[string]string, attrs []ldap.Attribute) string {
	for a, v := range want {
		found := false
		for _, at := range attrs {
			if strings.EqualFold(at.Type, a) {
				found = len(at.Values) == 1 && at.Values[0] == v
				if !found {
					return fmt.Sprintf("%s=%q, want %q", a, at.Values, v)
				}
			}
		}
		if !found {
			return fmt.Sprintf("%s missing, want %q", a, v)
		}
	}
	return ""
}

// phaseStats summarises a phase: latency histograms by class, from the
// scheduled send time, plus how late the scheduler sent ops that were not
// queued behind their DN.
type phaseStats struct {
	reads, writes, late Histogram
	// The windowed percentiles are robust to bursts: the class's ops, in
	// schedule order, are cut into up to maxWindows equal windows of at
	// least minWindow ops. A p50 is the lower quartile of the windows'
	// medians, so the stretches in which the host took the CPUs away are
	// left out; a p99 is the median of the windows' p99s.
	readP50, readP99, writeP50, writeP99 float64
	attempted, failed                    int
	firstBad                             string
	// span is the wall time from the first scheduled send to the last
	// answer.
	span time.Duration
}

const (
	maxWindows = 40
	minWindow  = 100
	// p50Across is the quantile over the windows reported for a p50.
	p50Across = 0.25
)

func (ph *phase) stats() phaseStats {
	var s phaseStats
	ph.mu.Lock()
	defer ph.mu.Unlock()
	var readLat, writeLat []int64
	for i := range ph.res {
		r := &ph.res[i]
		s.attempted++
		if !r.ok() {
			s.failed++
			if s.firstBad == "" {
				s.firstBad = r.bad
			}
			continue
		}
		lat := int64(r.done - r.sched)
		if ph.ops[i].kind.isWrite() {
			s.writes.Record(lat)
			writeLat = append(writeLat, lat)
		} else {
			s.reads.Record(lat)
			readLat = append(readLat, lat)
		}
		if !r.queued {
			s.late.Record(int64(r.sent - r.sched))
		}
		if r.done > s.span {
			s.span = r.done
		}
	}
	s.readP50, s.readP99 = windowed(readLat, 0.50, p50Across), windowed(readLat, 0.99, 0.5)
	s.writeP50, s.writeP99 = windowed(writeLat, 0.50, p50Across), windowed(writeLat, 0.99, 0.5)
	return s
}

// windowed returns the across-quantile, over the windows of lat, of each
// window's q-quantile.
func windowed(lat []int64, q, across float64) float64 {
	w := len(lat) / minWindow
	if w > maxWindows {
		w = maxWindows
	}
	if w < 1 {
		w = 1
	}
	p := make([]float64, w)
	for k := range p {
		var h Histogram
		for _, v := range lat[k*len(lat)/w : (k+1)*len(lat)/w] {
			h.Record(v)
		}
		p[k] = h.Quantile(q)
	}
	return quantileOf(p, across)
}
