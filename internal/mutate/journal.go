package mutate

import (
	"encoding/binary"
	"fmt"
	"math"

	"roadsocial/internal/durable"
)

// Journal is a per-dataset append-only mutation log (WAL) on a durable.Log,
// which owns the framing, fsync, torn-tail and compaction guarantees. Its
// payload encoding follows the repo's RSNAPv2 conventions: uvarint lengths,
// little-endian fixed-width words.
//
// Layout:
//
//	magic "RMUTJv1\n" (8 bytes)
//	record*: uvarint payloadLen | payload | crc32(payload) LE32
//	payload: uvarint version | kind byte | kind-specific fields
//	  InsertEdge/DeleteEdge: uvarint u | uvarint v
//	  SetAttrs:              uvarint u | uvarint dim | dim × float64 LE
//	  MoveUser:              uvarint user | onEdge byte |
//	                         uvarint u [| uvarint v | float64 LE off]
//
// A record is durable once Append returns. A failed Append leaves nothing
// behind, and a torn tail after a crash is dropped at the next open;
// everything before it replays.
type Journal struct {
	log *durable.Log
}

// Record is one journaled mutation with the dataset version it produced.
type Record struct {
	Version uint64
	Op      Op
}

const journalMagic = "RMUTJv1\n"

// OpenJournal opens (creating if absent) the mutation journal at path,
// returning the journal ready for appends and the records that must replay
// on top of a base snapshot at version base — i.e. records with
// Version > base, in order, up to the first torn or undecodable one. The
// file is compacted to exactly those records.
func OpenJournal(path string, base uint64) (*Journal, []Record, error) {
	log, payloads, err := durable.Open(path, journalMagic)
	if err != nil {
		return nil, nil, fmt.Errorf("mutate: %w", err)
	}
	var recs []Record
	var keep [][]byte
	for _, p := range payloads {
		r, ok := decodePayload(p)
		if !ok {
			break
		}
		if r.Version > base {
			recs = append(recs, r)
			keep = append(keep, p)
		}
	}
	if err := log.Compact(keep); err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("mutate: %w", err)
	}
	return &Journal{log: log}, recs, nil
}

// Append journals recs with one write and one fsync. On error nothing is
// durable, so callers must not install the mutation.
func (j *Journal) Append(recs []Record) error {
	payloads := make([][]byte, len(recs))
	for i, r := range recs {
		payloads[i] = encodePayload(r)
	}
	return j.log.Append(payloads...)
}

// Close closes the journal file. Further appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// Remove closes the journal and deletes it from disk (dataset removal).
func (j *Journal) Remove() error { return j.log.Remove() }

// encodePayload serializes one record's payload.
func encodePayload(r Record) []byte {
	payload := make([]byte, 0, 48)
	payload = binary.AppendUvarint(payload, r.Version)
	payload = append(payload, byte(r.Op.Kind))
	switch r.Op.Kind {
	case InsertEdge, DeleteEdge:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.V)))
	case SetAttrs:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		payload = binary.AppendUvarint(payload, uint64(len(r.Op.Attrs)))
		for _, x := range r.Op.Attrs {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
		}
	case MoveUser:
		payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.U)))
		if r.Op.Loc.OnEdge {
			payload = append(payload, 1)
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.U)))
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.V)))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r.Op.Loc.Off))
		} else {
			payload = append(payload, 0)
			payload = binary.AppendUvarint(payload, uint64(uint32(r.Op.Loc.U)))
		}
	}
	return payload
}

// decodePayload decodes one record payload.
func decodePayload(p []byte) (Record, bool) {
	var r Record
	ver, n := binary.Uvarint(p)
	if n <= 0 || n >= len(p) {
		return r, false
	}
	r.Version = ver
	r.Op.Kind = Kind(p[n])
	p = p[n+1:]
	u32 := func() (int32, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 || v > math.MaxUint32 {
			return 0, false
		}
		p = p[n:]
		return int32(uint32(v)), true
	}
	f64 := func() (float64, bool) {
		if len(p) < 8 {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
		return v, true
	}
	switch r.Op.Kind {
	case InsertEdge, DeleteEdge:
		u, ok1 := u32()
		v, ok2 := u32()
		if !ok1 || !ok2 {
			return r, false
		}
		r.Op.U, r.Op.V = u, v
	case SetAttrs:
		u, ok := u32()
		if !ok {
			return r, false
		}
		dim, n := binary.Uvarint(p)
		if n <= 0 || dim > 1<<16 {
			return r, false
		}
		p = p[n:]
		attrs := make([]float64, dim)
		for i := range attrs {
			x, ok := f64()
			if !ok {
				return r, false
			}
			attrs[i] = x
		}
		r.Op.U, r.Op.Attrs = u, attrs
	case MoveUser:
		u, ok := u32()
		if !ok || len(p) < 1 {
			return r, false
		}
		onEdge := p[0]
		p = p[1:]
		r.Op.U = u
		switch onEdge {
		case 0:
			lu, ok := u32()
			if !ok {
				return r, false
			}
			r.Op.Loc = LocSpec{U: lu}
		case 1:
			lu, ok1 := u32()
			lv, ok2 := u32()
			off, ok3 := f64()
			if !ok1 || !ok2 || !ok3 {
				return r, false
			}
			r.Op.Loc = LocSpec{OnEdge: true, U: lu, V: lv, Off: off}
		default:
			return r, false
		}
	default:
		return r, false
	}
	return r, len(p) == 0
}
