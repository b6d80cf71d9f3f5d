// Package replica implements replication for the MetaComm directory. The
// paper situates LDAP's availability story in replication ("LDAP servers
// make extensive use of replication to make directory information highly
// available", §2); this package supplies it in multi-master form:
//
//   - a Publisher streams committed updates to any consumer as journal v2
//     frames, the one encoding of an update record (directory.FrameEncoder),
//     between one-byte-tagged control messages. A consumer announces itself
//     with a hello carrying its node id and changelog cursor; the publisher
//     either RESUMES it (replaying the tail of records after the cursor)
//     or, when the in-memory tail no longer covers the cursor, ships a
//     full exact-cut snapshot — entries with their origin stamps plus
//     tombstones — followed by the live stream. Either way no writer on
//     the publisher is ever quiesced.
//   - a link (the consumer half) applies every received record through
//     DIT.ApplyRemote: per-entry last-writer-wins on the (Lamport seq,
//     node id) origin stamp, so records may arrive in any order, from any
//     number of peers, any number of times, and every node converges to
//     the same tree.
//   - a Replicator (replicator.go) composes one Publisher with N links
//     into a multi-master node: writes accepted anywhere, exchanged
//     peer-to-peer, durable cursors so reconnects resume instead of
//     re-snapshotting.
//   - a Replica is the read-only special case — one link feeding a local
//     tree that serves reads (wrap it in an ldapserver.DITHandler).
//
// Everything on the wire is a full post-image, never a delta: re-applying
// any suffix of the stream is idempotent (losing/duplicate stamps are
// silent no-ops), which is what makes the cursor protocol safe against
// torn connections, duplicated frames, and crash-stale cursors.
//
// The peer-cursor file a Replicator persists is the one piece of this
// package that stays JSON: it is local state, never on the wire.
package replica

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"metacomm/internal/directory"
	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// The stream: a control message is one tag byte and two uvarint fields;
// update records travel as journal v2 frames (directory.FrameEncoder), the
// same encoding the journal holds, carrying only two ops — "entry" (a full
// image upsert) and "delete" — each with its origin stamp.
//
//	consumer -> publisher   hello          node, cursor
//	publisher -> consumer   resume         cursor, 0
//	                        snapshot-begin seq, 0; then entry/delete frames
//	                        snapshot-end   seq, entries sent
//	                        change         seq, n; then n frames
//
// One source commit may decompose into several frames (a rename is
// delete+upsert); they ship in ONE change group so the consumer's cursor
// never lands between them. The tags lie outside ASCII and differ from the
// frame marker, so a peer speaking anything else is refused at its first
// byte rather than misparsed.
const (
	msgHello = 0xA1 + iota
	msgResume
	msgSnapshotBegin
	msgSnapshotEnd
	msgChange
)

// Record ops on the stream.
const (
	opEntry  = "entry"
	opDelete = "delete"
)

func appendControl(b []byte, tag byte, x, y uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(append(b, tag), x), y)
}

// readControl reads one control message. A frame marker or an unknown tag
// where a control message belongs is an error.
func readControl(r *bufio.Reader) (tag byte, x, y uint64, err error) {
	if tag, err = r.ReadByte(); err != nil {
		return 0, 0, 0, err
	}
	if tag < msgHello || tag > msgChange {
		return tag, 0, 0, fmt.Errorf("replica: unexpected message tag 0x%02x", tag)
	}
	if x, err = binary.ReadUvarint(r); err == nil {
		y, err = binary.ReadUvarint(r)
	}
	return tag, x, y, err
}

// streamWriter frames one connection's outbound messages into its
// buffered writer.
type streamWriter struct {
	w   *bufio.Writer
	enc directory.FrameEncoder
}

func (sw *streamWriter) control(tag byte, x, y uint64) error {
	_, err := sw.w.Write(appendControl(sw.w.AvailableBuffer(), tag, x, y))
	return err
}

// record writes one stream record: an image upsert (opEntry) or a delete.
func (sw *streamWriter) record(op, name string, image *directory.Attrs, seq uint64, st directory.Stamp) error {
	rec := directory.UpdateRecord{Seq: seq, Op: op, DN: name, Attrs: image,
		OriginSeq: st.Seq, OriginNode: st.Node}
	b, err := sw.enc.Append(sw.w.AvailableBuffer(), &rec)
	if err != nil {
		return err
	}
	_, err = sw.w.Write(b)
	return err
}

// PublisherStats counts one publisher's replication activity.
type PublisherStats struct {
	// Conns counts accepted consumer connections; Resumes/Snapshots split
	// their catch-ups by path; RecordsSent totals wire records shipped
	// (snapshot + live).
	Conns       uint64
	Resumes     uint64
	Snapshots   uint64
	RecordsSent uint64
}

// Publisher serves the replication stream from a DIT.
type Publisher struct {
	DIT *directory.DIT

	conns     atomic.Uint64
	resumes   atomic.Uint64
	snapshots atomic.Uint64
	sent      atomic.Uint64

	mu       sync.Mutex
	listener net.Listener
	open     map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewPublisher wraps a DIT.
func NewPublisher(d *directory.DIT) *Publisher {
	return &Publisher{DIT: d, open: map[net.Conn]bool{}}
}

// Stats reports publisher counters.
func (p *Publisher) Stats() PublisherStats {
	return PublisherStats{
		Conns:       p.conns.Load(),
		Resumes:     p.resumes.Load(),
		Snapshots:   p.snapshots.Load(),
		RecordsSent: p.sent.Load(),
	}
}

// Start listens for consumers on addr.
func (p *Publisher) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.listener = l
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			if p.closed {
				p.mu.Unlock()
				c.Close()
				return
			}
			p.open[c] = true
			p.mu.Unlock()
			p.conns.Add(1)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.serve(c)
			}()
		}
	}()
	return l.Addr(), nil
}

// Close stops the publisher and drops all consumers.
func (p *Publisher) Close() {
	p.mu.Lock()
	p.closed = true
	if p.listener != nil {
		p.listener.Close()
	}
	for c := range p.open {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// serve catches one consumer up (resume or snapshot, chosen by its hello
// cursor) and ships live changes until it drops.
func (p *Publisher) serve(nc net.Conn) {
	defer func() {
		nc.Close()
		p.mu.Lock()
		delete(p.open, nc)
		p.mu.Unlock()
	}()

	// The hello must arrive promptly; a consumer that dials and says
	// nothing would otherwise pin a subscription forever.
	nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	tag, _, cursor, err := readControl(bufio.NewReader(nc))
	if err != nil || tag != msgHello {
		return
	}
	nc.SetReadDeadline(time.Time{})

	sw := &streamWriter{w: bufio.NewWriter(nc)}
	var changes <-chan directory.UpdateRecord
	var cancel func()
	if backlog, ch, cf, ok := p.DIT.SubscribeFrom(cursor, 4096); ok {
		p.resumes.Add(1)
		changes, cancel = ch, cf
		defer cancel()
		if sw.control(msgResume, cursor, 0) != nil {
			return
		}
		for i := range backlog {
			if p.sendChange(sw, &backlog[i]) != nil {
				return
			}
		}
	} else {
		// Tail doesn't cover the cursor (evicted, disabled, or a cursor
		// from a history this process never saw): exact-cut snapshot.
		p.snapshots.Add(1)
		entries, tombs, seq, ch, cf := p.DIT.SnapshotReplicaAndSubscribe(4096)
		changes, cancel = ch, cf
		defer cancel()
		if sw.control(msgSnapshotBegin, seq, 0) != nil {
			return
		}
		for i := range entries {
			st := entries[i].Stamp
			if st.IsZero() {
				// Pre-replication entry (restored from an unstamped legacy
				// journal): ship the minimal valid stamp so it applies
				// everywhere but loses to any real write.
				st = directory.Stamp{Seq: 1, Node: p.DIT.NodeID()}
			}
			p.sent.Add(1)
			if sw.record(opEntry, entries[i].DN.String(), entries[i].Attrs, seq, st) != nil {
				return
			}
		}
		for i := range tombs {
			p.sent.Add(1)
			if sw.record(opDelete, tombs[i].Key, nil, seq, tombs[i].Stamp) != nil {
				return
			}
		}
		if sw.control(msgSnapshotEnd, seq, uint64(len(entries))) != nil {
			return
		}
	}
	if sw.w.Flush() != nil {
		return
	}

	// Unblock on consumer disconnect: a reader that fails closes nc.
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			if _, err := nc.Read(buf); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case rec, ok := <-changes:
			if !ok {
				return // overflow: consumer reconnects and resumes/resyncs
			}
			if p.sendChange(sw, &rec) != nil {
				return
			}
			// Drain whatever else is already buffered before flushing so a
			// burst of commits costs one syscall, not one per record.
			for drained := false; !drained; {
				select {
				case rec, ok = <-changes:
					if !ok {
						return
					}
					if p.sendChange(sw, &rec) != nil {
						return
					}
				default:
					drained = true
				}
			}
			if sw.w.Flush() != nil {
				return
			}
		case <-done:
			return
		}
	}
}

// sendChange ships one committed record as a change group of full-image
// upserts and stamped deletes. A rename decomposes into delete(old) +
// upsert(new) under the rename's single stamp. Every non-delete changelog
// record carries the image its update left behind, so the tree is never
// read here. Records that convert to nothing (unstamped legacy history,
// which the snapshot fallback covers) are skipped.
func (p *Publisher) sendChange(sw *streamWriter, rec *directory.UpdateRecord) error {
	st := rec.Origin()
	if st.IsZero() {
		return nil
	}
	op, name, n := opEntry, rec.DN, uint64(1)
	switch rec.Op {
	case "add", "entry", "modify":
	case "delete":
		op = opDelete
	case "modifydn":
		old, err := dn.Parse(rec.DN)
		if err != nil || old.IsRoot() {
			return nil
		}
		newRDN, err := dn.Parse(rec.NewRDN)
		if err != nil || newRDN.Depth() != 1 {
			return nil
		}
		name, n = old.WithRDN(newRDN.RDN()).String(), 2
	default:
		return nil
	}
	p.sent.Add(n)
	if err := sw.control(msgChange, rec.Seq, n); err != nil {
		return err
	}
	if n == 2 {
		if err := sw.record(opDelete, rec.DN, nil, rec.Seq, st); err != nil {
			return err
		}
	}
	return sw.record(op, name, rec.Attrs, rec.Seq, st)
}

// link is the consumer half of one replication connection: it dials a
// publisher, announces its cursor, applies everything received through
// ApplyRemote, and reconnects with backoff until stopped. Replica wraps
// one link; Replicator runs one per peer.
type link struct {
	addr    string
	node    uint32
	d       *directory.DIT
	onApply func(directory.RemoteApplied)
	persist func(cursor uint64)

	cursor     atomic.Uint64 // publisher commit seq reflected locally
	resyncs    atomic.Uint64 // snapshot catch-ups
	resumes    atomic.Uint64 // tail resumes
	applied    atomic.Uint64 // records that won LWW and mutated the tree
	noops      atomic.Uint64 // losing/duplicate deliveries
	structural atomic.Uint64 // records skipped on structural conflict
	connected  atomic.Bool

	stop chan struct{}
	wg   sync.WaitGroup
}

func newLink(addr string, node uint32, d *directory.DIT,
	onApply func(directory.RemoteApplied), persist func(uint64)) *link {
	return &link{addr: addr, node: node, d: d, onApply: onApply,
		persist: persist, stop: make(chan struct{})}
}

func (l *link) start() {
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			if err := l.session(); err != nil {
				select {
				case <-l.stop:
					return
				case <-time.After(100 * time.Millisecond):
				}
			}
		}
	}()
}

func (l *link) stopAndWait() {
	close(l.stop)
	l.wg.Wait()
}

func (l *link) setCursor(seq uint64) {
	l.cursor.Store(seq)
	if l.persist != nil {
		l.persist(seq)
	}
}

// session runs one connection: hello, catch-up (resume or snapshot), then
// the live stream until it breaks.
func (l *link) session() error {
	nc, err := net.DialTimeout("tcp", l.addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer nc.Close()
	// Drop the connection promptly when stopping; connDone reaps the
	// watcher when this session ends for any other reason.
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-l.stop:
			nc.Close()
		case <-connDone:
		}
	}()

	if _, err := nc.Write(appendControl(nil, msgHello, uint64(l.node), l.cursor.Load())); err != nil {
		return err
	}
	return l.consume(bufio.NewReader(nc))
}

// consume reads one publisher stream — the catch-up (resume, or a
// snapshot between snapshot-begin and snapshot-end), then change groups —
// until it breaks. Anything off-protocol is an error that ends the
// session; the link then redials.
func (l *link) consume(r *bufio.Reader) error {
	var dec directory.FrameDecoder
	var rec directory.UpdateRecord
	tag, seq, n, err := readControl(r)
	if err != nil {
		return err
	}
	switch tag {
	case msgResume:
		l.resumes.Add(1)
	case msgSnapshotBegin:
		l.resyncs.Add(1)
		var entries uint64
		for {
			b, err := r.Peek(1)
			if err != nil {
				return err
			}
			if b[0] == msgSnapshotEnd {
				break
			}
			if err := dec.Read(r, &rec); err != nil {
				return err
			}
			if rec.Op == opEntry {
				entries++
			}
			if err := l.applyOne(&rec); err != nil {
				return err
			}
		}
		if _, seq, n, err = readControl(r); err != nil {
			return err
		}
		if n != entries {
			return fmt.Errorf("replica: snapshot-end counts %d entries, stream carried %d", n, entries)
		}
		// The cut seq may be BELOW our stale cursor (publisher restarted
		// with a fresh history); trusting it either way is safe because
		// every apply is idempotent under LWW.
		l.setCursor(seq)
	default:
		return fmt.Errorf("replica: stream starts with message tag 0x%02x", tag)
	}
	l.connected.Store(true)
	defer l.connected.Store(false)

	for {
		if tag, seq, n, err = readControl(r); err != nil {
			return err
		}
		if tag != msgChange {
			return fmt.Errorf("replica: unexpected message tag 0x%02x in stream", tag)
		}
		for i := uint64(0); i < n; i++ {
			if err := dec.Read(r, &rec); err != nil {
				return err
			}
			if err := l.applyOne(&rec); err != nil {
				return err
			}
		}
		// Cursor advances only after the WHOLE group applied: a rename's
		// delete+upsert pair is never torn by a reconnect between them.
		l.setCursor(seq)
	}
}

// applyOne feeds one stream record through LWW resolution. Structural
// conflicts (bad DN, missing parent, delete of a non-leaf, unstamped
// record) are counted and skipped — they are per-record, not per-stream,
// and re-delivery cannot fix them. A record that is neither an image
// upsert nor a delete is off-protocol, and real failures (a poisoned local
// journal) abort the session.
func (l *link) applyOne(rec *directory.UpdateRecord) error {
	deleted := rec.Op == opDelete
	if !deleted && rec.Op != opEntry {
		return fmt.Errorf("replica: unexpected %q record in stream", rec.Op)
	}
	name, err := dn.Parse(rec.DN)
	if err != nil {
		l.structural.Add(1)
		return nil
	}
	res, err := l.d.ApplyRemote(name, rec.Attrs, rec.Origin(), deleted)
	if err != nil {
		switch directory.CodeOf(err) {
		case ldap.ResultNoSuchObject, ldap.ResultNotAllowedOnNonLeaf,
			ldap.ResultProtocolError, ldap.ResultInvalidDNSyntax:
			l.structural.Add(1)
			return nil
		}
		return err
	}
	if !res.Applied {
		l.noops.Add(1)
		return nil
	}
	l.applied.Add(1)
	if l.onApply != nil {
		l.onApply(res)
	}
	return nil
}

// Replica maintains a read-only copy of one publisher — the single-master
// special case of the protocol (node id 0, no publisher of its own).
type Replica struct {
	// DIT is the replica's local tree; serve reads from it.
	DIT *directory.DIT

	link *link
}

// New builds a replica of the publisher at addr. schema should match the
// publisher's (nil for none). Call Start to begin replicating.
func New(addr string, schema *directory.Schema) *Replica {
	d := directory.New(schema)
	return &Replica{DIT: d, link: newLink(addr, 0, d, nil, nil)}
}

// AppliedSeq returns the publisher commit sequence the replica reflects.
func (r *Replica) AppliedSeq() uint64 { return r.link.cursor.Load() }

// Resyncs counts full snapshot resynchronizations. A replica whose cursor
// is still covered by the publisher's changelog tail resumes instead (see
// Resumes), so reconnects normally leave this untouched.
func (r *Replica) Resyncs() uint64 { return r.link.resyncs.Load() }

// Resumes counts cursor resumes — the cheap catch-up path, including the
// initial sync when the publisher's tail reaches back to seq 0.
func (r *Replica) Resumes() uint64 { return r.link.resumes.Load() }

// Connected reports whether the replication stream is live.
func (r *Replica) Connected() bool { return r.link.connected.Load() }

// Start begins replicating in the background, reconnecting with a small
// backoff until Stop.
func (r *Replica) Start() { r.link.start() }

// Stop halts replication.
func (r *Replica) Stop() { r.link.stopAndWait() }
