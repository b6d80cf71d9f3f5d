package directory

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"metacomm/internal/dn"
	"metacomm/internal/ldap"
)

// Multi-master replication plumbing (DESIGN.md §15). Every committed update
// is stamped with an origin (Lamport-seq, node-id) pair; peers exchange
// full post-images plus stamps and resolve conflicts per entry by
// last-writer-wins on the stamp order, so any apply order converges to the
// same tree. Deletes leave tombstones so a concurrent losing upsert cannot
// resurrect an entry, and a joining node seeds itself from an exact-cut
// snapshot (entries with stamps + tombstones + changelog cursor) without
// quiescing the donor.
//
// The origin stamp is deliberately NOT the global commit seq: commit seqs
// must stay contiguous (the emitter's reorder buffer stalls on gaps, and
// remote applies take local commit seqs of their own), so the stamp comes
// from a separate Lamport clock that only ratchets forward — raised past
// every remote stamp observed, which keeps "my next local write wins over
// everything I have already seen" true on every node.

// Stamp identifies the originating write of an entry's current state:
// a Lamport sequence from the origin node's clock plus the origin node id
// as the total-order tiebreak.
type Stamp struct {
	Seq  uint64
	Node uint32
}

// Less orders stamps: by Lamport seq, node id breaking ties. The relation
// is total over distinct (Seq, Node) pairs, which is what makes LWW
// deterministic regardless of apply order.
func (s Stamp) Less(t Stamp) bool {
	if s.Seq != t.Seq {
		return s.Seq < t.Seq
	}
	return s.Node < t.Node
}

// IsZero reports an absent stamp (pre-replication records).
func (s Stamp) IsZero() bool { return s.Seq == 0 && s.Node == 0 }

// SetNodeID sets this node's replication identity. Call once, before any
// writes; node ids must be distinct across a cluster (the LWW tiebreak).
func (d *DIT) SetNodeID(id uint32) { d.nodeID = id }

// NodeID returns the replication identity (0 = unconfigured single node).
func (d *DIT) NodeID() uint32 { return d.nodeID }

// bumpClock raises the Lamport clock to at least seq (the receive rule).
func (d *DIT) bumpClock(seq uint64) {
	for {
		cur := d.clock.Load()
		if cur >= seq {
			return
		}
		if d.clock.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// stampLocked mints the origin stamp for a local write. Called inside the
// segment write critical section so the stamp order of two writes to the
// same entry matches their apply order.
func (d *DIT) stampLocked() Stamp {
	return Stamp{Seq: d.clock.Add(1), Node: d.nodeID}
}

// Origin returns the record's origin stamp (zero for pre-replication
// records).
func (r *UpdateRecord) Origin() Stamp {
	return Stamp{Seq: r.OriginSeq, Node: r.OriginNode}
}

// maxTombstones bounds a segment's tombstone map. When it fills, the
// oldest-stamped half is dropped — the same age-based GC production
// directories apply. A delete older than everything in a full tombstone
// map is by construction far in the past; re-delivering its losing upsert
// that much later would require a peer partitioned across thousands of
// intervening deletes.
const maxTombstones = 8192

// setTombstone records that key was deleted by st, pruning when full.
// Caller holds the segment lock.
func (s *segment) setTombstone(key string, st Stamp) {
	if s.tombstones == nil {
		s.tombstones = make(map[string]Stamp, 8)
	}
	s.tombstones[key] = st
	if len(s.tombstones) <= maxTombstones {
		return
	}
	// Prune the oldest half by stamp order.
	stamps := make([]Stamp, 0, len(s.tombstones))
	for _, ts := range s.tombstones {
		stamps = append(stamps, ts)
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i].Less(stamps[j]) })
	cut := stamps[len(stamps)/2]
	for k, ts := range s.tombstones {
		if ts.Less(cut) {
			delete(s.tombstones, k)
		}
	}
}

// RemoteApplied describes the local effect of one remote update: whether
// it won LWW (losing applies are silent no-ops), and the before/after
// images for device propagation (Old nil = created, New nil = deleted).
type RemoteApplied struct {
	Applied bool
	DN      dn.DN
	Old     *Attrs
	New     *Attrs
}

// ApplyRemote applies one remotely-originated update — a full post-image
// upsert or a delete, carrying its origin stamp — with per-entry
// last-writer-wins resolution:
//
//   - the update applies iff its stamp is strictly greater than the
//     entry's current stamp (or its tombstone's, when absent); losing or
//     duplicate deliveries return Applied=false and mutate nothing, which
//     is what makes flood-style exchange terminate and re-delivery after
//     reconnect idempotent.
//   - a winning delete leaves a tombstone so a slower concurrent upsert
//     with a smaller stamp cannot resurrect the entry; a delete of an
//     absent entry records the tombstone alone.
//   - structural conflicts the flat LWW rule cannot express — an upsert
//     whose parent does not exist here, a delete of an entry that has
//     children here — return an error for the caller to count; they
//     cannot arise in the flat (suffix + leaves) trees the telecom
//     workloads build.
//
// Winning applies take a local commit seq, journal, and emit on the
// changelog exactly like local writes (with the ORIGIN stamp preserved),
// so remote updates are durable, visible to gateway caches, and forwarded
// to this node's own subscribers.
//
// The image is installed as given — no schema re-validation (the origin
// already validated it; divergent local rejection would break convergence)
// — and MUST NOT be mutated by the caller afterwards.
func (d *DIT) ApplyRemote(name dn.DN, image *Attrs, st Stamp, deleted bool) (RemoteApplied, error) {
	if st.IsZero() {
		return RemoteApplied{}, errf(ldap.ResultProtocolError, "remote update for %q carries no origin stamp", name)
	}
	if name.IsRoot() {
		return RemoteApplied{}, errf(ldap.ResultInvalidDNSyntax, "remote update for the root entry")
	}
	// Lamport receive rule: local writes after this point outrank st.
	d.bumpClock(st.Seq)

	key := name.Normalize()
	parentKey := name.Parent().Normalize()
	sa, sp := d.seg(key), d.seg(parentKey)
	lockPair(sa, sp)
	n, exists := sa.entries[key]

	if deleted {
		if !exists {
			if ts, has := sa.tombstones[key]; has && !ts.Less(st) {
				unlockPair(sa, sp)
				return RemoteApplied{Applied: false}, nil
			}
			// Tombstone-only apply: remember the delete (and journal it)
			// even though the entry never reached this node, so the
			// tombstone survives restarts and flows to our own peers.
			if err := sa.commitReady(); err != nil {
				unlockPair(sa, sp)
				return RemoteApplied{}, err
			}
			sa.setTombstone(key, st)
			seq := d.seq.Add(1)
			rec := UpdateRecord{Seq: seq, Op: "delete", DN: name.String(),
				OriginSeq: st.Seq, OriginNode: st.Node}
			t := d.commitLocked(sa, rec)
			unlockPair(sa, sp)
			if err := t.Wait(); err != nil {
				return RemoteApplied{}, err
			}
			return RemoteApplied{Applied: true, DN: name}, nil
		}
		if !n.stamp.Less(st) {
			unlockPair(sa, sp)
			return RemoteApplied{Applied: false}, nil
		}
		if len(n.children) > 0 {
			unlockPair(sa, sp)
			return RemoteApplied{}, errf(ldap.ResultNotAllowedOnNonLeaf, "remote delete of %q: entry has children here", name)
		}
		if err := sa.commitReady(); err != nil {
			unlockPair(sa, sp)
			return RemoteApplied{}, err
		}
		delete(sa.entries, key)
		sa.unindexEntry(key, n.attrs)
		if p, ok := sp.entries[parentKey]; ok {
			delete(p.children, key)
		}
		sa.setTombstone(key, st)
		d.count.Add(-1)
		seq := d.seq.Add(1)
		rec := UpdateRecord{Seq: seq, Op: "delete", DN: name.String(),
			OriginSeq: st.Seq, OriginNode: st.Node}
		t := d.commitLocked(sa, rec)
		unlockPair(sa, sp)
		if err := t.Wait(); err != nil {
			return RemoteApplied{}, err
		}
		return RemoteApplied{Applied: true, DN: name, Old: n.attrs}, nil
	}

	// Upsert.
	if exists {
		if !n.stamp.Less(st) {
			unlockPair(sa, sp)
			return RemoteApplied{Applied: false}, nil
		}
		if err := sa.commitReady(); err != nil {
			unlockPair(sa, sp)
			return RemoteApplied{}, err
		}
		old := n.attrs
		sa.reindexEntry(key, old, image)
		n.attrs = image
		n.dn = name
		n.stamp = st
		seq := d.seq.Add(1)
		rec := UpdateRecord{Seq: seq, Op: "entry", DN: name.String(),
			Attrs: image, normKey: key, OriginSeq: st.Seq, OriginNode: st.Node}
		t := d.commitLocked(sa, rec)
		unlockPair(sa, sp)
		if err := t.Wait(); err != nil {
			return RemoteApplied{}, err
		}
		return RemoteApplied{Applied: true, DN: name, Old: old, New: image}, nil
	}
	if ts, has := sa.tombstones[key]; has && !ts.Less(st) {
		unlockPair(sa, sp)
		return RemoteApplied{Applied: false}, nil
	}
	if !name.Parent().IsRoot() {
		if _, ok := sp.entries[parentKey]; !ok {
			unlockPair(sa, sp)
			return RemoteApplied{}, errf(ldap.ResultNoSuchObject, "remote upsert of %q: parent does not exist here", name)
		}
	}
	if err := sa.commitReady(); err != nil {
		unlockPair(sa, sp)
		return RemoteApplied{}, err
	}
	if p, ok := sp.entries[parentKey]; ok {
		p.addChild(key)
	}
	sa.entries[key] = &node{dn: name, key: key, attrs: image, stamp: st}
	sa.indexEntry(key, image)
	delete(sa.tombstones, key)
	d.count.Add(1)
	seq := d.seq.Add(1)
	rec := UpdateRecord{Seq: seq, Op: "entry", DN: name.String(),
		Attrs: image, normKey: key, OriginSeq: st.Seq, OriginNode: st.Node}
	t := d.commitLocked(sa, rec)
	unlockPair(sa, sp)
	if err := t.Wait(); err != nil {
		return RemoteApplied{}, err
	}
	return RemoteApplied{Applied: true, DN: name, New: image}, nil
}

// DefaultChangeTail is the cursor-addressable changelog tail's capacity
// when SetChangeTail has not been called: how many recent records a
// reconnecting peer may resume across without a snapshot fallback.
const DefaultChangeTail = 8192

// SetChangeTail resizes the changelog tail ring (0 disables it; every
// resume then falls back to a snapshot). Existing tail contents are
// dropped, so resume coverage restarts at the current seq.
func (d *DIT) SetChangeTail(capacity int) {
	d.subMu.Lock()
	defer d.subMu.Unlock()
	d.tailCap = capacity
	d.tailBuf = nil
	d.tailStart, d.tailLen = 0, 0
	d.tailFirst = d.tailLast
}

// tailAppendLocked records one emitted record in the tail ring. Caller
// holds subMu (emission order == tail order).
func (d *DIT) tailAppendLocked(rec UpdateRecord) {
	if d.tailCap <= 0 {
		return
	}
	if d.tailBuf == nil {
		d.tailBuf = make([]UpdateRecord, d.tailCap)
	}
	if d.tailLen == d.tailCap {
		d.tailFirst = d.tailBuf[d.tailStart].Seq
		d.tailStart = (d.tailStart + 1) % d.tailCap
		d.tailLen--
	}
	d.tailBuf[(d.tailStart+d.tailLen)%d.tailCap] = rec
	d.tailLen++
	d.tailLast = rec.Seq
}

// resetTailTo clears the tail and restarts its coverage at seq — called
// when replayed history fast-forwards the changelog (journal attach): the
// tail is in-memory, so nothing before seq can be resumed from.
func (d *DIT) resetTailTo(seq uint64) {
	d.subMu.Lock()
	d.tailStart, d.tailLen = 0, 0
	d.tailFirst, d.tailLast = seq, seq
	d.subMu.Unlock()
}

// SubscribeFrom registers a changelog subscription resuming after cursor
// `after`: the backlog slice holds the already-committed records with
// Seq > after still covered by the tail ring, and the channel delivers
// everything later, exactly once, in commit order. ok=false means the
// tail no longer covers the cursor (evicted, or from a foreign history)
// and the caller must fall back to a snapshot. The overflow/cancel
// contract matches SnapshotAndSubscribe.
func (d *DIT) SubscribeFrom(after uint64, buffer int) (backlog []UpdateRecord, changes <-chan UpdateRecord, cancel func(), ok bool) {
	if buffer <= 0 {
		buffer = 1024
	}
	d.subMu.Lock()
	if after < d.tailFirst || after > d.seq.Load() {
		d.subMu.Unlock()
		return nil, nil, nil, false
	}
	for i := 0; i < d.tailLen; i++ {
		rec := d.tailBuf[(d.tailStart+i)%d.tailCap]
		if rec.Seq > after {
			backlog = append(backlog, rec)
		}
	}
	sub := &changeSub{ch: make(chan UpdateRecord, buffer), startAfter: after}
	d.subs = append(d.subs, sub)
	d.subMu.Unlock()
	return backlog, sub.ch, d.cancelFunc(sub), true
}

// ReplEntry is one entry of a replication snapshot: the live image plus
// the origin stamp that installed it.
type ReplEntry struct {
	DN    dn.DN
	Attrs *Attrs
	Stamp Stamp
}

// ReplTombstone is one remembered delete: the normalized DN key and the
// deleting stamp.
type ReplTombstone struct {
	Key   string
	Stamp Stamp
}

// SnapshotReplicaAndSubscribe captures the exact cut a joining peer seeds
// from — every entry with its stamp (parents before children, so the
// receiver can ApplyRemote them in order), every tombstone, the commit
// seq the cut reflects, and a live subscription delivering everything
// after it — without quiescing writers: the same rlockAll header capture
// as SnapshotAndSubscribeSeq (PR 3/7), extended with stamps and
// tombstones.
func (d *DIT) SnapshotReplicaAndSubscribe(buffer int) (entries []ReplEntry, tombs []ReplTombstone, seq uint64, changes <-chan UpdateRecord, cancel func()) {
	if buffer <= 0 {
		buffer = 1024
	}
	d.rlockAll()
	total := 0
	for _, s := range d.segs {
		total += len(s.entries)
	}
	entries = make([]ReplEntry, 0, total)
	keys := make([]string, 0, total)
	for _, s := range d.segs {
		for k, n := range s.entries {
			entries = append(entries, ReplEntry{DN: n.dn, Attrs: n.attrs, Stamp: n.stamp})
			keys = append(keys, k)
		}
		for k, ts := range s.tombstones {
			tombs = append(tombs, ReplTombstone{Key: k, Stamp: ts})
		}
	}
	seq = d.seq.Load()
	sub := &changeSub{ch: make(chan UpdateRecord, buffer), startAfter: seq}
	d.subMu.Lock()
	d.subs = append(d.subs, sub)
	d.subMu.Unlock()
	d.runlockAll()

	sort.Sort(&replEntrySorter{entries, keys})
	return entries, tombs, seq, sub.ch, d.cancelFunc(sub)
}

type replEntrySorter struct {
	e []ReplEntry
	k []string
}

func (s *replEntrySorter) Len() int { return len(s.e) }
func (s *replEntrySorter) Swap(i, j int) {
	s.e[i], s.e[j] = s.e[j], s.e[i]
	s.k[i], s.k[j] = s.k[j], s.k[i]
}
func (s *replEntrySorter) Less(i, j int) bool {
	if di, dj := s.e[i].DN.Depth(), s.e[j].DN.Depth(); di != dj {
		return di < dj
	}
	return s.k[i] < s.k[j]
}

// Fingerprint returns a canonical SHA-256 over the directory's exact
// state: every entry's normalized DN, attributes (names sorted, values in
// stored order), and origin stamp. Two nodes with equal fingerprints hold
// byte-identical trees AND will resolve all future conflicts identically
// (the stamps match too). Tombstones are excluded — they are GC-pruned
// metadata, not state. Taken under all segment read locks (exact cut).
func (d *DIT) Fingerprint() string {
	type fpEnt struct {
		key   string
		attrs *Attrs
		stamp Stamp
	}
	d.rlockAll()
	ents := make([]fpEnt, 0, int(d.count.Load()))
	for _, s := range d.segs {
		for k, n := range s.entries {
			ents = append(ents, fpEnt{key: k, attrs: n.attrs, stamp: n.stamp})
		}
	}
	d.runlockAll()
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })
	h := sha256.New()
	var num [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	for _, e := range ents {
		writeStr(e.key)
		binary.LittleEndian.PutUint64(num[:], e.stamp.Seq)
		h.Write(num[:])
		binary.LittleEndian.PutUint64(num[:], uint64(e.stamp.Node))
		h.Write(num[:])
		e.attrs.EachSorted(func(attr string, values []string) {
			writeStr(lower(attr))
			binary.LittleEndian.PutUint64(num[:], uint64(len(values)))
			h.Write(num[:])
			for _, v := range values {
				writeStr(v)
			}
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}
