// Durable device-update outbox: graceful degradation under device outages.
//
// The paper's UM logs a failed device apply into ou=errors and moves on —
// the update is lost at that device until the next full synchronization
// pass (§4.4). The outbox closes that gap: every translated TargetUpdate
// that fails (or that targets a device whose circuit breaker is open) is
// journaled, keyed by (device, entry DN, seq), and replayed by a per-device
// drainer with exponential backoff once the device answers again. Per-entry
// order is preserved by the same FNV-32a shard discipline the UM's own
// queues use, plus a per-DN pending count: while an entry has backlog at a
// device, new fan-out updates for that entry are appended behind the
// backlog instead of applied directly, so a replay can never regress a
// newer direct apply. Replays that the device rejects for non-outage
// reasons (conditional-update conflicts, semantic errors) fall back to a
// targeted per-entry repair: the live directory entry is re-translated and
// conditionally applied — the PR 3 delta-reconciliation move, for just the
// affected DN, with no global pass and no quiesce.
package um

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/device"
	"metacomm/internal/filter"
	"metacomm/internal/ldap"
	"metacomm/internal/lexpress"
)

// Outbox sizing and policy defaults.
const (
	DefaultOutboxMaxRetries       = 8
	DefaultOutboxBaseBackoff      = 50 * time.Millisecond
	DefaultOutboxMaxBackoff       = 5 * time.Second
	DefaultOutboxBreakerThreshold = 3
	// outboxCompactEvery is how many acknowledged journal lines accumulate
	// before the journal is rewritten with only the live records.
	outboxCompactEvery = 1024
)

// OutboxConfig configures the durable device-update outbox. The zero value
// disables it, keeping the legacy behavior: a failed device apply is logged
// as an error entry and the update is lost at that device until the next
// synchronization pass.
type OutboxConfig struct {
	// Enable turns the outbox on without a journal (retries are in-memory
	// only and do not survive a restart). Dir != "" implies Enable.
	Enable bool
	// Dir is the journal directory; each device gets a
	// <Dir>/<device>.outbox JSON-lines file that survives crashes.
	Dir string
	// MaxRetries is how many outage-class replay attempts a journaled
	// update gets before the drainer switches to targeted repair
	// (0 = DefaultOutboxMaxRetries).
	MaxRetries int
	// BaseBackoff is the first retry delay; it doubles per attempt with
	// ±25% jitter (0 = DefaultOutboxBaseBackoff).
	BaseBackoff time.Duration
	// MaxBackoff caps the retry delay and the breaker's open window
	// (0 = DefaultOutboxMaxBackoff).
	MaxBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// device's circuit breaker open (0 = DefaultOutboxBreakerThreshold).
	BreakerThreshold int
	// ApplyTimeout bounds each fan-out device apply; an apply exceeding it
	// is classified as a device outage and journaled (0 = no timeout).
	ApplyTimeout time.Duration
}

// Enabled reports whether the config turns the outbox on.
func (c OutboxConfig) Enabled() bool { return c.Enable || c.Dir != "" }

func (c OutboxConfig) withDefaults() OutboxConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = DefaultOutboxMaxRetries
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultOutboxBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultOutboxMaxBackoff
	}
	if c.MaxBackoff < c.BaseBackoff {
		c.MaxBackoff = c.BaseBackoff
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultOutboxBreakerThreshold
	}
	return c
}

// OutboxStats snapshots one device's outbox and breaker.
type OutboxStats struct {
	// Device is the device name.
	Device string
	// Breaker is the circuit-breaker position: closed, open, or half-open.
	Breaker string
	// Backlog is the number of journaled updates awaiting replay.
	Backlog int
	// Enqueued counts updates that entered the outbox; Drained counts
	// successful replays; Retries counts failed replay attempts; Repairs
	// counts targeted per-entry repair syncs; Dropped counts updates given
	// up on (repair also failed — an error entry was logged).
	Enqueued, Drained, Retries, Repairs, Dropped uint64
	// Deferred counts fan-out applies diverted into the outbox without
	// touching the device (open breaker or backlog ahead of them).
	Deferred uint64
	// Trips counts breaker openings.
	Trips uint64
}

// errApplyTimeout classifies a fan-out apply that exceeded
// OutboxConfig.ApplyTimeout; it counts as a device outage.
var errApplyTimeout = errors.New("um: device apply timed out")

// outageError reports whether err looks like the device being unreachable
// (retry later) rather than rejecting the update (repair now).
func outageError(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, device.ErrDown) || errors.Is(err, errApplyTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}

// outboxRecord is one journaled update. Kind "u" lines carry updates; kind
// "a" lines acknowledge the seq they name (replayed or dropped).
type outboxRecord struct {
	Kind string                 `json:"k"`
	Seq  uint64                 `json:"seq"`
	DN   string                 `json:"dn,omitempty"`
	TU   *lexpress.TargetUpdate `json:"tu,omitempty"`

	// attempts counts outage-class replay failures (not persisted: a
	// restart resets the budget, which is the right call — the journal is
	// replayed against a device that just came back).
	attempts int
}

// outbox owns one deviceOutbox per registered filter. It is constructed in
// New (so the pointer is immutable for the UM's lifetime) and populated in
// Start, after AddDevice registration is complete.
type outbox struct {
	u   *UM
	cfg OutboxConfig

	mu      sync.Mutex
	devices []*deviceOutbox

	wg   sync.WaitGroup
	stop chan struct{}
}

// deviceOutbox is one device's journal, queues, and drainer.
type deviceOutbox struct {
	ob      *outbox
	name    string
	f       *filter.DeviceFilter
	breaker *filter.Breaker
	wake    chan struct{}

	mu sync.Mutex
	// queues are per-shard FIFOs: records for one entry DN always land in
	// the same shard (the UM's FNV-32a discipline), so replay order per
	// entry is the enqueue order. A record stays at its queue head while
	// the drainer works on it.
	queues [][]*outboxRecord
	// pendingDN counts queued + in-flight records per normalized DN; the
	// fan-out defers behind it.
	pendingDN map[string]int
	backlog   int
	seq       uint64
	journal   *outboxJournal // nil without a journal directory

	enqueued, drained, retries, repairs, dropped, deferred atomic.Uint64
}

// newOutbox is called from New when the config enables the outbox.
func newOutbox(u *UM, cfg OutboxConfig) *outbox {
	return &outbox{u: u, cfg: cfg.withDefaults(), stop: make(chan struct{})}
}

// start builds the per-device state (loading any journal backlog) and
// launches the drainers. Called from UM.Start after AddDevice registration.
func (ob *outbox) start() error {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for _, f := range ob.u.filters {
		d := &deviceOutbox{
			ob:   ob,
			name: f.Name(),
			f:    f,
			breaker: filter.NewBreaker(ob.cfg.BreakerThreshold,
				ob.cfg.BaseBackoff, ob.cfg.MaxBackoff),
			wake:      make(chan struct{}, 1),
			queues:    make([][]*outboxRecord, len(ob.u.shards)),
			pendingDN: map[string]int{},
		}
		if ob.cfg.Dir != "" {
			j, backlog, maxSeq, err := openOutboxJournal(ob.cfg.Dir, d.name)
			if err != nil {
				return fmt.Errorf("um: outbox journal for %s: %w", d.name, err)
			}
			d.journal = j
			d.seq = maxSeq
			for _, rec := range backlog {
				si := d.shardOf(rec.DN)
				d.queues[si] = append(d.queues[si], rec)
				d.pendingDN[rec.DN]++
				d.backlog++
			}
			if d.backlog > 0 {
				ob.u.logf("um: outbox %s: %d journaled updates to drain", d.name, d.backlog)
			}
		}
		ob.devices = append(ob.devices, d)
		ob.wg.Add(1)
		go d.run()
	}
	return nil
}

// close stops the drainers and closes the journals.
func (ob *outbox) close() {
	close(ob.stop)
	ob.wg.Wait()
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for _, d := range ob.devices {
		d.mu.Lock()
		if d.journal != nil {
			d.journal.close()
			d.journal = nil
		}
		d.mu.Unlock()
	}
}

// forDevice finds the device's outbox (nil before Start or for an unknown
// device).
func (ob *outbox) forDevice(f *filter.DeviceFilter) *deviceOutbox {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	for _, d := range ob.devices {
		if d.f == f {
			return d
		}
	}
	return nil
}

// stats snapshots every device's outbox.
func (ob *outbox) stats() []OutboxStats {
	ob.mu.Lock()
	devices := append([]*deviceOutbox(nil), ob.devices...)
	ob.mu.Unlock()
	out := make([]OutboxStats, 0, len(devices))
	for _, d := range devices {
		d.mu.Lock()
		backlog := d.backlog
		d.mu.Unlock()
		out = append(out, OutboxStats{
			Device:   d.name,
			Breaker:  d.breaker.State().String(),
			Backlog:  backlog,
			Enqueued: d.enqueued.Load(),
			Drained:  d.drained.Load(),
			Retries:  d.retries.Load(),
			Repairs:  d.repairs.Load(),
			Dropped:  d.dropped.Load(),
			Deferred: d.deferred.Load(),
			Trips:    d.breaker.Trips(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// deferUpdate decides, before the fan-out touches the device, whether the
// update must go through the outbox instead: yes when the device's breaker
// is not closed (outage in progress — don't eat an apply timeout per
// update) or when the entry already has backlog at this device (a direct
// apply would be overtaken by the later replay). The check and the enqueue
// are atomic under the device mutex.
func (ob *outbox) deferUpdate(f *filter.DeviceFilter, dnStr string, tu *lexpress.TargetUpdate) bool {
	d := ob.forDevice(f)
	if d == nil {
		return false
	}
	norm := normalizeDNString(dnStr)
	d.mu.Lock()
	if d.breaker.State() == filter.BreakerClosed && d.pendingDN[norm] == 0 {
		d.mu.Unlock()
		return false
	}
	d.enqueueLocked(norm, tu)
	d.mu.Unlock()
	d.deferred.Add(1)
	d.kick()
	return true
}

// handleFailure journals a fan-out apply that failed. It reports false when
// the outbox does not cover the device (the caller logs the legacy error
// entry).
func (ob *outbox) handleFailure(f *filter.DeviceFilter, dnStr string, tu *lexpress.TargetUpdate, err error) bool {
	d := ob.forDevice(f)
	if d == nil {
		return false
	}
	if outageError(err) {
		d.breaker.Failure()
	}
	norm := normalizeDNString(dnStr)
	d.mu.Lock()
	d.enqueueLocked(norm, tu)
	d.mu.Unlock()
	ob.u.logf("um: outbox %s: journaled %s key=%q after apply error: %v",
		d.name, tu.Op, tu.Key, err)
	d.kick()
	return true
}

// enqueueLocked appends a record behind the DN's backlog. Caller holds d.mu.
func (d *deviceOutbox) enqueueLocked(norm string, tu *lexpress.TargetUpdate) {
	d.seq++
	rec := &outboxRecord{Kind: "u", Seq: d.seq, DN: norm, TU: tu}
	si := d.shardOf(norm)
	d.queues[si] = append(d.queues[si], rec)
	d.pendingDN[norm]++
	d.backlog++
	d.enqueued.Add(1)
	if d.journal != nil {
		if err := d.journal.append(rec); err != nil {
			d.ob.u.logf("um: outbox %s: journal append: %v", d.name, err)
		}
	}
}

// kick wakes the drainer without blocking.
func (d *deviceOutbox) kick() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// shardOf mirrors UM.shardFor on an already-normalized DN.
func (d *deviceOutbox) shardOf(norm string) int {
	if len(d.queues) == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(norm))
	return int(h.Sum32() % uint32(len(d.queues)))
}

// run is the device drainer: it sleeps while the backlog is empty, and
// otherwise makes replay passes separated by the backoff the failing pass
// asked for. Stop is checked at the top of every iteration, whichever
// branch led there: a pass that saw stop returns 0 ("go again now"), and
// a wake-up or expired backoff may win its select against a closed stop,
// so no single branch's check is enough to end a non-empty backlog's loop.
func (d *deviceOutbox) run() {
	defer d.ob.wg.Done()
	for {
		select {
		case <-d.ob.stop:
			return
		default:
		}
		d.mu.Lock()
		idle := d.backlog == 0
		d.mu.Unlock()
		if idle {
			select {
			case <-d.wake:
				continue
			case <-d.ob.stop:
				return
			}
		}
		wait := d.pass()
		if wait <= 0 {
			continue
		}
		select {
		case <-time.After(wait):
		case <-d.ob.stop:
			return
		}
	}
}

// pass walks the shard queues once, replaying heads in order. It returns 0
// when every queue drained (or new work should be attempted immediately)
// and a backoff duration when the device pushed back.
func (d *deviceOutbox) pass() time.Duration {
	for si := range d.queues {
		for {
			select {
			case <-d.ob.stop:
				return 0
			default:
			}
			rec := d.head(si)
			if rec == nil {
				break
			}
			if !d.breaker.Allow() {
				// Outage in progress: sleep until the breaker admits its
				// next probe. Other shards would hit the same wall — the
				// breaker is per device, not per entry.
				if w := time.Until(d.breaker.ProbeAt()); w > 0 {
					return w
				}
				return d.ob.cfg.BaseBackoff
			}
			err := d.apply(rec.TU)
			if err == nil {
				d.breaker.Success()
				d.complete(si, rec)
				d.drained.Add(1)
				continue
			}
			d.retries.Add(1)
			if outageError(err) {
				d.breaker.Failure()
				rec.attempts++
				if rec.attempts <= d.ob.cfg.MaxRetries {
					return d.backoffFor(rec.attempts)
				}
				// Retry budget exhausted: try repair; if the device is
				// still down that fails too and the record stays.
			} else {
				// The device answered (and rejected the update): the link
				// is healthy even if the replay conflicted.
				d.breaker.Success()
			}
			d.repairs.Add(1)
			if rerr := d.ob.u.repairEntry(d.f, rec.DN, rec.TU); rerr != nil {
				if outageError(rerr) {
					d.breaker.Failure()
					rec.attempts++
					return d.backoffFor(rec.attempts)
				}
				// Replay failed and repair failed with the device up:
				// surface the legacy error entry and drop the record so
				// the shard is not poisoned.
				d.ob.u.logError("outbox", d.name, rec.TU.Op.String(), rec.TU.Key,
					errors.Join(err, rerr))
				d.complete(si, rec)
				d.dropped.Add(1)
				continue
			}
			d.ob.u.logf("um: outbox %s: repaired %s key=%q after replay error: %v",
				d.name, rec.TU.Op, rec.TU.Key, err)
			d.complete(si, rec)
			d.drained.Add(1)
		}
	}
	return 0
}

// apply replays one update, honoring the configured apply timeout.
func (d *deviceOutbox) apply(tu *lexpress.TargetUpdate) error {
	_, err := d.ob.u.applyDevice(d.f, tu)
	return err
}

// head returns shard si's first record without removing it (the pending
// count must include the in-flight record so the fan-out keeps deferring).
func (d *deviceOutbox) head(si int) *outboxRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.queues[si]) == 0 {
		return nil
	}
	return d.queues[si][0]
}

// complete retires a finished (drained, repaired, or dropped) head record.
func (d *deviceOutbox) complete(si int, rec *outboxRecord) {
	d.mu.Lock()
	defer d.mu.Unlock()
	q := d.queues[si]
	if len(q) == 0 || q[0] != rec {
		return // defensive; heads are only removed here
	}
	d.queues[si] = q[1:]
	if d.pendingDN[rec.DN]--; d.pendingDN[rec.DN] <= 0 {
		delete(d.pendingDN, rec.DN)
	}
	d.backlog--
	if d.journal != nil {
		if err := d.journal.ack(rec.Seq); err != nil {
			d.ob.u.logf("um: outbox %s: journal ack: %v", d.name, err)
		}
		if d.journal.acksSinceCompact >= outboxCompactEvery {
			live := make([]*outboxRecord, 0, d.backlog)
			for _, q := range d.queues {
				live = append(live, q...)
			}
			sort.Slice(live, func(i, j int) bool { return live[i].Seq < live[j].Seq })
			if err := d.journal.compact(live); err != nil {
				d.ob.u.logf("um: outbox %s: journal compact: %v", d.name, err)
			}
		}
	}
}

// backoffFor is the exponential, jittered retry delay after `attempts`
// consecutive outage-class failures of one record.
func (d *deviceOutbox) backoffFor(attempts int) time.Duration {
	delay := d.ob.cfg.BaseBackoff
	for i := 1; i < attempts && delay < d.ob.cfg.MaxBackoff; i++ {
		delay *= 2
	}
	if delay > d.ob.cfg.MaxBackoff {
		delay = d.ob.cfg.MaxBackoff
	}
	// ±25% jitter so recovering devices see a spread of retries.
	return delay*3/4 + time.Duration(rand.Int63n(int64(delay)/2+1))
}

// applyDevice runs one device apply under the configured timeout. A timed-
// out apply keeps running in its goroutine (the device protocol has no
// cancel); if it eventually succeeds, the subsequent replay or repair is
// idempotent (modify-replace, conditional semantics), so the race is
// convergence-safe.
func (u *UM) applyDevice(f *filter.DeviceFilter, tu *lexpress.TargetUpdate) (lexpress.Record, error) {
	timeout := time.Duration(0)
	if u.outbox != nil {
		timeout = u.outbox.cfg.ApplyTimeout
	}
	if timeout <= 0 {
		return f.Apply(tu)
	}
	type result struct {
		stored lexpress.Record
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		stored, err := f.Apply(tu)
		ch <- result{stored, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.stored, r.err
	case <-timer.C:
		return nil, fmt.Errorf("%w after %v (%s key=%q)", errApplyTimeout, timeout, tu.Op, tu.Key)
	}
}

// repairEntry is the targeted per-entry repair sync: re-derive the device's
// record from the live directory entry and conditionally apply it — the
// PR 3 delta-reconciliation move for a single DN, with no global pass and
// no quiesce. An entry that vanished from the directory (or is no longer
// routed to the device) is conditionally deleted at the device.
func (u *UM) repairEntry(f *filter.DeviceFilter, dnStr string, tu *lexpress.TargetUpdate) error {
	entries, err := u.cfg.Backing.Search(&ldap.SearchRequest{
		BaseDN: dnStr, Scope: ldap.ScopeBaseObject,
	})
	if err != nil && !ldap.IsCode(err, ldap.ResultNoSuchObject) {
		return err
	}
	if len(entries) == 0 {
		return u.repairDelete(f, tu)
	}
	live := entryRecord(entries[0])
	ntu, terr := f.Translate(lexpress.Descriptor{
		Source: "ldap", Op: lexpress.OpModify, Key: entries[0].DN, Old: live, New: live,
	})
	if terr != nil {
		return terr
	}
	if ntu == nil {
		// The live entry is no longer under this device's management; the
		// device's record (if any) is stale.
		return u.repairDelete(f, tu)
	}
	ntu.Conditional = true // fall back to add when the device lacks the record
	_, err = u.applyDevice(f, ntu)
	return err
}

// repairDelete conditionally removes the device record the failed update
// addressed (a no-op when the device does not have it).
func (u *UM) repairDelete(f *filter.DeviceFilter, tu *lexpress.TargetUpdate) error {
	if tu.Key == "" && tu.OldKey == "" {
		return nil
	}
	_, err := u.applyDevice(f, &lexpress.TargetUpdate{
		Target: tu.Target, Op: lexpress.OpDelete,
		Key: tu.Key, OldKey: tu.OldKey, Conditional: true,
	})
	return err
}

// OutboxStats snapshots the per-device outbox and breaker state (nil when
// the outbox is disabled).
func (u *UM) OutboxStats() []OutboxStats {
	if u.outbox == nil {
		return nil
	}
	return u.outbox.stats()
}

// OutboxBacklog sums the journaled updates awaiting replay across devices.
func (u *UM) OutboxBacklog() int {
	total := 0
	for _, s := range u.OutboxStats() {
		total += s.Backlog
	}
	return total
}

// --- journal ---

// outboxJournal is one device's JSON-lines journal: "u" lines append
// updates, "a" lines acknowledge them. Compaction rewrites the file with
// only the live records (tmp + rename, so a crash leaves either the old or
// the new journal, never a torn one).
type outboxJournal struct {
	path             string
	f                *os.File
	acksSinceCompact int
}

// openOutboxJournal opens (creating if needed) the device's journal and
// returns the unacknowledged backlog in seq order plus the highest seq seen.
// An unterminated final line is the one shape a crash mid-append leaves; it
// is dropped (the open-time compaction rewrites the file without it). A
// complete line that does not parse is damage, not a tear: the open fails
// naming the file and leaves it exactly as it was, since compacting past it
// would silently drop every record after it.
func openOutboxJournal(dir, deviceName string) (*outboxJournal, []*outboxRecord, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	path := filepath.Join(dir, deviceName+".outbox")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, err
	}
	pending := map[uint64]*outboxRecord{}
	var maxSeq uint64
	br := bufio.NewReaderSize(f, 64*1024)
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			break // a non-empty remainder is the torn tail
		}
		if err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if len(line) == 1 {
			continue
		}
		var rec outboxRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("%s: line %d is damaged: %v", path, lineNo, err)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		switch rec.Kind {
		case "u":
			if rec.TU != nil {
				r := rec
				pending[rec.Seq] = &r
			}
		case "a":
			delete(pending, rec.Seq)
		}
	}
	backlog := make([]*outboxRecord, 0, len(pending))
	for _, rec := range pending {
		backlog = append(backlog, rec)
	}
	sort.Slice(backlog, func(i, j int) bool { return backlog[i].Seq < backlog[j].Seq })
	j := &outboxJournal{path: path, f: f}
	// Rewrite on open: drops acknowledged pairs and any torn tail.
	if err := j.compact(backlog); err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	return j, backlog, maxSeq, nil
}

// append writes one update line.
func (j *outboxJournal) append(rec *outboxRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(b, '\n'))
	return err
}

// ack writes one acknowledge line.
func (j *outboxJournal) ack(seq uint64) error {
	b, err := json.Marshal(&outboxRecord{Kind: "a", Seq: seq})
	if err != nil {
		return err
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return err
	}
	j.acksSinceCompact++
	return nil
}

// compact rewrites the journal to hold exactly the live records.
func (j *outboxJournal) compact(live []*outboxRecord) error {
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, rec := range live {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp)
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = nf
	old.Close()
	j.acksSinceCompact = 0
	return nil
}

// close flushes and closes the journal file.
func (j *outboxJournal) close() {
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
