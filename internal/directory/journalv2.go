package directory

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Journal record format v2: length-prefixed binary frames, the only record
// encoding the journal reads or writes. Replay cost dominates cold start at
// million-entry scale (E21, E22); a v2 record decodes with no
// reflection, no intermediate map, and no per-field allocation beyond the
// strings that live on in the DIT, following the same reused-buffer
// discipline as the internal/ber Reader (one payload buffer per replay
// stream, one encode buffer per committer).
//
// Frame layout (all integers little-endian, lengths uvarint):
//
//	0xB2                     frame marker ("v2")
//	uvarint payloadLen       bytes between here and the checksum
//	payload                  op-tagged record body (below)
//	uint32 CRC32-C           Castagnoli checksum of payload
//
// Payload layout:
//
//	byte   op               1 add | 2 delete | 3 modify | 4 modifydn | 5 entry
//	uvarint seq
//	string DN               (string = uvarint byteLen + bytes)
//	entry:       string normalized DN key (may be empty), then as add
//	add|entry:   uvarint nattrs, then per attribute:
//	             string name, uvarint nvals, string values...
//	modify:      uvarint nchanges, then per change:
//	             byte op (1 add | 2 delete | 3 replace),
//	             string attr, uvarint nvals, string values...
//	modifydn:    string newRDN, byte deleteOldRDN (0|1)
//	delete:      nothing further
//	(optional)   uvarint originSeq, uvarint originNode — the replication
//	             origin stamp, appended after the op-specific fields only
//	             when nonzero. Pre-replication frames simply end earlier;
//	             the decoder reads the stamp iff payload bytes remain, so
//	             both generations round-trip byte-identically.
//
// Entry records — what compaction writes, so what nearly every replayed
// record is after the first restart — carry the entry's normalized DN key,
// which compaction holds anyway (it is the entry's map key): replay skips
// re-normalizing a million DNs it normalized before the crash. An empty
// key field just means "normalize at replay".
//
// The marker byte begins every record, so replay refuses a file holding
// anything else at a record boundary — data in another format, or damage —
// rather than guess at it (DESIGN.md §11).
//
// Torn tails (DESIGN.md §11): a final frame cut short by a crash — EOF
// inside the varint, payload, or checksum — is truncated and counted; a
// complete frame whose checksum or structure is wrong is corruption and
// aborts replay wherever it sits. Tears only ever shorten the file, so
// "incomplete" is the only shape a crash leaves.

const (
	// frameMarkerV2 begins every v2 frame. Deliberately outside ASCII, so
	// text in a journal file is never mistaken for a frame.
	frameMarkerV2 = 0xB2

	// maxV2Payload bounds a single record's declared payload so a corrupt
	// length cannot drive an allocation; far above any real entry.
	maxV2Payload = 64 << 20

	// payloadChunk is the smallest step the payload buffer grows by.
	payloadChunk = 1 << 20
)

// Op tags, payload byte 0.
const (
	opTagAdd = iota + 1
	opTagDelete
	opTagModify
	opTagModifyDN
	opTagEntry
)

// Change op tags inside a modify payload.
const (
	changeTagAdd = iota + 1
	changeTagDelete
	changeTagReplace
)

// errTornFrameV2 classifies an incomplete final frame (crash mid-append):
// replay truncates at the frame start and continues.
var errTornFrameV2 = errors.New("directory: torn journal v2 frame")

var crcV2Table = crc32.MakeTable(crc32.Castagnoli)

// FrameEncoder marshals records into frames, reusing one payload scratch
// buffer across records (the committer keeps one per pipeline). It and
// FrameDecoder are the codec's entry points beyond the journal too: the
// replication stream (internal/replica) ships update records as these same
// frames, so a record has one encoding wherever it travels.
type FrameEncoder struct {
	payload []byte
}

// appendRecord appends rec as one framed v2 record to dst.
func (e *FrameEncoder) Append(dst []byte, rec *UpdateRecord) ([]byte, error) {
	p, err := appendPayloadV2(e.payload[:0], rec)
	if err != nil {
		return dst, err
	}
	e.payload = p
	dst = append(dst, frameMarkerV2)
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	dst = append(dst, p...)
	crc := crc32.Checksum(p, crcV2Table)
	return binary.LittleEndian.AppendUint32(dst, crc), nil
}

func appendStringV2(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

// appendValuesV2 appends a counted string list.
func appendValuesV2(p []byte, vals []string) []byte {
	p = binary.AppendUvarint(p, uint64(len(vals)))
	for _, v := range vals {
		p = appendStringV2(p, v)
	}
	return p
}

// appendPayloadV2 appends rec's payload bytes (no frame) to p. Add and
// entry images encode straight from rec.Attrs; a nil image encodes as no
// attributes.
func appendPayloadV2(p []byte, rec *UpdateRecord) ([]byte, error) {
	var tag byte
	switch rec.Op {
	case "add":
		tag = opTagAdd
	case "delete":
		tag = opTagDelete
	case "modify":
		tag = opTagModify
	case "modifydn":
		tag = opTagModifyDN
	case "entry":
		tag = opTagEntry
	default:
		return p, fmt.Errorf("journal v2: unknown op %q", rec.Op)
	}
	p = append(p, tag)
	p = binary.AppendUvarint(p, rec.Seq)
	p = appendStringV2(p, rec.DN)
	if tag == opTagEntry {
		p = appendStringV2(p, rec.normKey)
	}
	switch tag {
	case opTagAdd, opTagEntry:
		var fields []attrField
		if rec.Attrs != nil {
			fields = rec.Attrs.fields
		}
		p = binary.AppendUvarint(p, uint64(len(fields)))
		for i := range fields {
			p = appendStringV2(p, fields[i].display)
			p = appendValuesV2(p, fields[i].vals)
		}
	case opTagModify:
		p = binary.AppendUvarint(p, uint64(len(rec.Changes)))
		for i := range rec.Changes {
			c := &rec.Changes[i]
			var ct byte
			switch c.Op {
			case "add":
				ct = changeTagAdd
			case "delete":
				ct = changeTagDelete
			case "replace":
				ct = changeTagReplace
			default:
				return p, fmt.Errorf("journal v2: unknown change op %q", c.Op)
			}
			p = append(p, ct)
			p = appendStringV2(p, c.Attr)
			p = appendValuesV2(p, c.Values)
		}
	case opTagModifyDN:
		p = appendStringV2(p, rec.NewRDN)
		if rec.DeleteOldRDN {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	if rec.OriginSeq != 0 || rec.OriginNode != 0 {
		p = binary.AppendUvarint(p, rec.OriginSeq)
		p = binary.AppendUvarint(p, uint64(rec.OriginNode))
	}
	return p, nil
}

// FrameDecoder reads frames from a buffered stream, reusing one payload buffer
// across records. Decoded records borrow nothing: every string is its own
// copy (it outlives the buffer in the DIT).
type FrameDecoder struct {
	payload []byte
	// names caches raw attribute-name spelling -> interned (key, display)
	// for this stream. A journal repeats the same handful of names per
	// record; the cache turns per-record lower()+intern() (two global
	// sync.Map probes and up to two allocations each) into one local map
	// probe with no allocation.
	names map[string]internedName
}

// internedName is a cached attribute name: interned lowered key and
// interned display spelling.
type internedName struct{ key, display string }

func (d *FrameDecoder) internName(raw []byte) internedName {
	if in, ok := d.names[string(raw)]; ok { // no alloc: compiler-recognized pattern
		return in
	}
	name := string(raw)
	in := internedName{key: intern(lower(name)), display: intern(name)}
	if d.names == nil {
		d.names = make(map[string]internedName, 16)
	}
	d.names[name] = in
	return in
}

// Read decodes the next frame from r into rec. Anything but one complete,
// checksum-verified frame is an error; a stream that ends inside the frame
// returns io.ErrUnexpectedEOF.
func (d *FrameDecoder) Read(r *bufio.Reader, rec *UpdateRecord) error {
	if _, err := d.readFrame(r, rec); err != errTornFrameV2 {
		return err
	}
	return io.ErrUnexpectedEOF
}

// readFrame reads one frame from r and decodes it into rec, returning the
// frame's total byte length. A first byte other than the marker is an
// error. An incomplete frame at EOF returns errTornFrameV2; a complete
// frame that fails its checksum or does not parse is corruption and
// returns a descriptive error.
func (d *FrameDecoder) readFrame(r *bufio.Reader, rec *UpdateRecord) (int, error) {
	b, err := r.ReadByte()
	if err != nil {
		return 0, errTornFrameV2
	}
	if b != frameMarkerV2 {
		return 1, fmt.Errorf("byte 0x%02x is not a journal v2 frame marker", b)
	}
	n := 1
	plen, vn, err := readUvarintV2(r)
	n += vn
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return n, errTornFrameV2
		}
		return n, err
	}
	if plen > maxV2Payload {
		return n, fmt.Errorf("frame payload %d bytes exceeds limit", plen)
	}
	p, err := d.readPayload(r, int(plen))
	if err != nil {
		return n, errTornFrameV2
	}
	n += int(plen)
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return n, errTornFrameV2
	}
	n += 4
	if got, want := crc32.Checksum(p, crcV2Table), binary.LittleEndian.Uint32(crcb[:]); got != want {
		return n, fmt.Errorf("frame checksum mismatch (crc32c %08x, frame says %08x)", got, want)
	}
	if err := d.decodePayload(p, rec); err != nil {
		return n, err
	}
	return n, nil
}

// readPayload reads the next n bytes into the reused payload buffer. A
// buffer too small grows in doubling steps of at least payloadChunk as the
// bytes arrive, so a declared length is only paid for with data actually
// read: a short stream claiming a huge frame costs one chunk, not the
// claim.
func (d *FrameDecoder) readPayload(r io.Reader, n int) ([]byte, error) {
	p := d.payload[:0]
	for len(p) < n {
		step := min(n-len(p), max(payloadChunk, len(p)))
		p = slices.Grow(p, step)
		got, err := io.ReadFull(r, p[len(p):len(p)+step])
		p = p[:len(p)+got]
		if err != nil {
			d.payload = p
			return nil, err
		}
	}
	d.payload = p
	return p, nil
}

// readUvarintV2 is binary.ReadUvarint with a consumed-byte count, so replay
// can track file offsets for torn-tail truncation.
func readUvarintV2(r *bufio.Reader) (uint64, int, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, i, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, i + 1, errors.New("uvarint overflows 64 bits")
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, i + 1, errors.New("uvarint overflows 64 bits")
			}
			return x | uint64(b)<<s, i + 1, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// v2cursor walks a payload during decode with bounds checking.
type v2cursor struct {
	b   []byte
	off int
}

var errV2Truncated = errors.New("payload truncated")

func (c *v2cursor) rem() int { return len(c.b) - c.off }

func (c *v2cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, errV2Truncated
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *v2cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errV2Truncated
	}
	c.off += n
	return v, nil
}

// count reads a element count and rejects counts that could not fit in the
// remaining payload (each element costs at least min bytes), so a corrupt
// count cannot drive a huge allocation.
func (c *v2cursor) count(min int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.rem()/min) {
		return 0, fmt.Errorf("count %d exceeds remaining payload", v)
	}
	return int(v), nil
}

func (c *v2cursor) str() (string, error) {
	b, err := c.strBytes()
	return string(b), err
}

// strBytes returns the next string's bytes without copying; the slice
// aliases the payload buffer and is only valid until the next frame.
func (c *v2cursor) strBytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.rem()) {
		return nil, errV2Truncated
	}
	b := c.b[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *v2cursor) values() ([]string, error) {
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // round-trip fidelity: absent and empty both encode as 0
	}
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.str()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// decodePayload parses one checksum-verified payload into rec. For
// add/entry records the attributes decode straight into rec.Attrs with
// interned names — replay and replication install it as decoded.
func (d *FrameDecoder) decodePayload(p []byte, rec *UpdateRecord) error {
	*rec = UpdateRecord{}
	c := v2cursor{b: p}
	tag, err := c.byte()
	if err != nil {
		return err
	}
	if rec.Seq, err = c.uvarint(); err != nil {
		return err
	}
	if rec.DN, err = c.str(); err != nil {
		return err
	}
	switch tag {
	case opTagAdd, opTagEntry:
		if tag == opTagAdd {
			rec.Op = "add"
		} else {
			rec.Op = "entry"
			if rec.normKey, err = c.str(); err != nil {
				return err
			}
		}
		// name + empty value list = 2 bytes minimum per attribute.
		na, err := c.count(2)
		if err != nil {
			return err
		}
		a := &Attrs{fields: make([]attrField, 0, na)}
		for i := 0; i < na; i++ {
			name, err := c.strBytes()
			if err != nil {
				return err
			}
			vals, err := c.values()
			if err != nil {
				return err
			}
			in := d.internName(name)
			a.fields = append(a.fields, attrField{
				key: in.key, display: in.display, vals: vals})
		}
		rec.Attrs = a
	case opTagDelete:
		rec.Op = "delete"
	case opTagModify:
		rec.Op = "modify"
		// op byte + attr + empty value list = 3 bytes minimum per change.
		nc, err := c.count(3)
		if err != nil {
			return err
		}
		rec.Changes = make([]UpdateChange, 0, nc)
		for i := 0; i < nc; i++ {
			ct, err := c.byte()
			if err != nil {
				return err
			}
			var op string
			switch ct {
			case changeTagAdd:
				op = "add"
			case changeTagDelete:
				op = "delete"
			case changeTagReplace:
				op = "replace"
			default:
				return fmt.Errorf("unknown change tag %d", ct)
			}
			attr, err := c.str()
			if err != nil {
				return err
			}
			vals, err := c.values()
			if err != nil {
				return err
			}
			rec.Changes = append(rec.Changes, UpdateChange{Op: op, Attr: attr, Values: vals})
		}
	case opTagModifyDN:
		rec.Op = "modifydn"
		if rec.NewRDN, err = c.str(); err != nil {
			return err
		}
		b, err := c.byte()
		if err != nil {
			return err
		}
		rec.DeleteOldRDN = b != 0
	default:
		return fmt.Errorf("unknown op tag %d", tag)
	}
	if c.rem() > 0 {
		// Optional trailing origin stamp (absent on pre-replication frames).
		os, err := c.uvarint()
		if err != nil {
			return err
		}
		on, err := c.uvarint()
		if err != nil {
			return err
		}
		if on > 1<<32-1 {
			return fmt.Errorf("origin node %d overflows 32 bits", on)
		}
		rec.OriginSeq, rec.OriginNode = os, uint32(on)
	}
	if c.rem() != 0 {
		return fmt.Errorf("%d trailing payload bytes", c.rem())
	}
	return nil
}
