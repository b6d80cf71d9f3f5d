package main

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/ltap"
)

// span is one timed call across a layer boundary. Spans of one LDAP
// operation share an op ID: the operation's DN and its ordinal among the
// operations on that DN (the generator numbers them the same way).
type span struct {
	Name  string `json:"n"`
	Op    string `json:"o,omitempty"`
	Start int64  `json:"s"` // unix ns
	End   int64  `json:"e"`
	// Parent is the index of the enclosing span of the same op (-1 for a
	// root); the analysis resolves it from the layer nesting.
	Parent int `json:"-"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func opID(dn string, ord int) string { return normDN(dn) + "#" + strconv.Itoa(ord) }

func normDN(dn string) string { return strings.ToLower(strings.TrimSpace(dn)) }

// recorder keeps spans in memory while recording is on. LTAP handler calls
// start an op: the DN's next ordinal becomes the op in flight on it, and
// the inner layers' spans on that DN join it.
type recorder struct {
	on atomic.Bool

	mu    sync.Mutex
	spans []span
	ord   map[string]int
	cur   map[string]string
	// events are the UM's trigger events, replayed through lexpress after
	// the run.
	events []ltap.Event
}

// capture keeps a copy of a trigger event the UM served.
func (r *recorder) capture(ev ltap.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

func newRecorder() *recorder {
	return &recorder{ord: map[string]int{}, cur: map[string]string{}}
}

// begin opens an op on dn (LTAP handler entry) and returns its ID.
func (r *recorder) begin(dn string) string {
	if !r.on.Load() {
		return ""
	}
	k := normDN(dn)
	r.mu.Lock()
	id := k + "#" + strconv.Itoa(r.ord[k])
	r.ord[k]++
	r.cur[k] = id
	r.mu.Unlock()
	return id
}

// end closes the op on dn and records its root span.
func (r *recorder) end(dn, id, name string, start time.Time) {
	if id == "" {
		return
	}
	now := time.Now()
	k := normDN(dn)
	r.mu.Lock()
	if r.cur[k] == id {
		delete(r.cur, k)
	}
	r.spans = append(r.spans, span{Name: name, Op: id, Start: start.UnixNano(), End: now.UnixNano()})
	r.mu.Unlock()
}

// record adds an inner span on dn, joined to the op in flight there.
func (r *recorder) record(name, dn string, start time.Time) {
	if !r.on.Load() {
		return
	}
	now := time.Now()
	k := normDN(dn)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: r.cur[k], Start: start.UnixNano(), End: now.UnixNano()})
	r.mu.Unlock()
}

// parentOf names the layer each span nests in; the analysis links a span
// to the innermost span of that name in the same op that contains it.
var parentOf = map[string][]string{
	"ltap.backend":   {"ltap.search", "ltap.write"},
	"ltap.action":    {"ltap.write"},
	"um.update":      {"ltap.action"},
	"um.backing":     {"um.update"},
	"device.pbx":     {"um.update"},
	"device.msgplat": {"um.update"},
	"dir.search":     {"ltap.backend", "um.backing"},
	"dir.write":      {"um.backing"},
}

// trace is the spans of one server process, linked into trees.
type trace struct {
	spans    []span
	children [][]int
	byOp     map[string][]int
}

func newTrace(spans []span) *trace {
	t := &trace{spans: spans, children: make([][]int, len(spans)), byOp: map[string][]int{}}
	for i := range spans {
		spans[i].Parent = -1
		if spans[i].Op != "" {
			t.byOp[spans[i].Op] = append(t.byOp[spans[i].Op], i)
		}
	}
	for _, idx := range t.byOp {
		for _, i := range idx {
			s := &spans[i]
			best := -1
			for _, j := range idx {
				p := &spans[j]
				if j == i || !contains(parentOf[s.Name], p.Name) || p.Start > s.Start || p.End < s.End {
					continue
				}
				if best < 0 || p.dur() < spans[best].dur() {
					best = j
				}
			}
			s.Parent = best
			if best >= 0 {
				t.children[best] = append(t.children[best], i)
			}
		}
	}
	return t
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// root returns the op's root span (an LTAP handler span), or -1.
func (t *trace) root(op string) int {
	for _, i := range t.byOp[op] {
		if t.spans[i].Parent < 0 && strings.HasPrefix(t.spans[i].Name, "ltap.") {
			return i
		}
	}
	return -1
}

// selfTime is a span's duration minus the part of it its children cover
// (overlapping children count once).
func (t *trace) selfTime(i int) int64 {
	s := t.spans[i]
	return s.dur() - covered(s.Start, s.End, t.spans, t.children[i])
}

// covered returns the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(lo, hi int64, spans []span, idx []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, j := range idx {
		a, b := spans[j].Start, spans[j].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// blocking sums the self times along a span's blocking path: its own self
// time plus, for each group of children that overlap in time (the UM's
// concurrent device fan-out), the blocking path of the group's slowest
// member, which is the one the parent waited for.
func (t *trace) blocking(i int) int64 {
	total := t.selfTime(i)
	kids := append([]int(nil), t.children[i]...)
	sort.Slice(kids, func(x, y int) bool { return t.spans[kids[x]].Start < t.spans[kids[y]].Start })
	for g := 0; g < len(kids); {
		slowest, end := kids[g], t.spans[kids[g]].End
		h := g + 1
		for ; h < len(kids) && t.spans[kids[h]].Start < end; h++ {
			if t.spans[kids[h]].End > end {
				end = t.spans[kids[h]].End
			}
			if t.spans[kids[h]].dur() > t.spans[slowest].dur() {
				slowest = kids[h]
			}
		}
		total += t.blocking(slowest)
		g = h
	}
	return total
}
