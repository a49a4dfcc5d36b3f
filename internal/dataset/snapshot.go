package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"roadsocial/internal/durable"
	"roadsocial/internal/mac"
	"roadsocial/internal/road"
	"roadsocial/internal/social"
)

// Snapshot is the on-disk form of a fully-built dataset: the social graph
// (edges, attributes, labels), the road graph, the user locations, and —
// when the network carries one — the built G-tree index. Registering from a
// snapshot costs I/O, not index construction: the G-tree of Zhong et al.
// (TKDE 2015) is built once, serialized, and loaded ever after, which is
// exactly the register-time profile a control plane wants for dataset moves
// and restarts.
//
// Two wire versions exist, distinguished by their 8-byte magic:
//
//	RSNAPv1\n — element-by-element varint codec. Legacy; still read.
//	RSNAPv2\n — sectioned, 8-byte-aligned little-endian layout whose
//	            payload IS the in-memory flat arrays (CSR road graph,
//	            flat G-tree slabs), so a file can be memory-mapped and
//	            used in place. Written by default. See docs/snapshot.md.
//
// Floats are stored as raw IEEE-754 bits in both versions, and both freeze
// the road graph to the same canonical CSR, so a loaded network — v1, v2
// buffered, or v2 mmap'ed — is bit-identical to the one serialized:
// searches against it return byte-identical results. Checksums catch
// truncated or corrupted files before any of the payload is trusted.

// snapshotMagic identifies version 1 of the format.
const snapshotMagic = "RSNAPv1\n"

// DefaultMaxSnapshotBytes caps how much the buffered readers will hold in
// memory for one snapshot (1 GiB) when the caller does not choose a limit:
// a corrupted or hostile length field must not OOM the server. The
// memory-mapped file loader never buffers, so no cap applies there.
const DefaultMaxSnapshotBytes int64 = 1 << 30

// WriteSnapshot serializes the network in the current (v2) format. The
// network must be valid; the G-tree section is included only when
// net.Oracle is a *road.GTree (any other oracle is dropped — only the
// G-tree has a stable on-disk form).
func WriteSnapshot(w io.Writer, net *mac.Network) error {
	return writeSnapshotV2(w, net, 0)
}

// WriteSnapshotVersion is WriteSnapshot with a dataset mutation version
// stamped into the RSNAPv2 header (section kind 9). A zero version writes no
// stamp, keeping the bytes identical to WriteSnapshot; non-zero versions let
// a restarted leaf replay only the journal records newer than the snapshot.
func WriteSnapshotVersion(w io.Writer, net *mac.Network, version uint64) error {
	return writeSnapshotV2(w, net, version)
}

// writeSnapshotV1 emits the legacy format. Kept (unexported) so tests can
// prove v1 files keep loading into bit-identical networks.
func writeSnapshotV1(w io.Writer, net *mac.Network) error {
	if err := net.Validate(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := encodeSocial(&buf, net.Social); err != nil {
		return err
	}
	if err := road.EncodeGraph(&buf, net.Road); err != nil {
		return err
	}
	for _, l := range net.Locs {
		if err := road.EncodeLocation(&buf, l); err != nil {
			return err
		}
	}
	if gt, ok := net.Oracle.(*road.GTree); ok {
		buf.WriteByte(1)
		if err := road.EncodeGTree(&buf, gt); err != nil {
			return err
		}
	} else {
		buf.WriteByte(0)
	}

	payload := buf.Bytes()
	var header [20]byte
	copy(header[:8], snapshotMagic)
	binary.LittleEndian.PutUint64(header[8:16], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[16:20], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadSnapshot deserializes a network written by WriteSnapshot — either
// version, dispatched on the magic — holding at most DefaultMaxSnapshotBytes
// in memory.
func ReadSnapshot(r io.Reader) (*mac.Network, error) {
	return ReadSnapshotLimit(r, DefaultMaxSnapshotBytes)
}

// ReadSnapshotLimit is ReadSnapshot with an explicit buffering cap: any
// snapshot whose declared size exceeds maxBytes is rejected before
// allocation. This is the streaming entry point (HTTP bodies, shard moves);
// local files should prefer ReadSnapshotFile, which memory-maps v2
// snapshots instead of buffering them.
func ReadSnapshotLimit(r io.Reader, maxBytes int64) (*mac.Network, error) {
	net, _, err := ReadSnapshotLimitVersion(r, maxBytes)
	return net, err
}

// ReadSnapshotLimitVersion is ReadSnapshotLimit surfacing the dataset
// mutation version stamped in the RSNAPv2 header; v1 snapshots and
// unstamped v2 snapshots report version 0.
func ReadSnapshotLimitVersion(r io.Reader, maxBytes int64) (*mac.Network, uint64, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	switch string(magic[:]) {
	case snapshotMagic:
		net, err := readSnapshotV1(r, maxBytes)
		return net, 0, err
	case snapshotMagicV2:
		return readSnapshotV2(r, maxBytes)
	default:
		return nil, 0, fmt.Errorf("dataset: not a snapshot (or unsupported version): magic %q", magic[:])
	}
}

// readSnapshotV1 decodes the legacy format; the caller has already consumed
// the 8 magic bytes. The payload is read with CopyN into a growing buffer
// rather than allocated up front, so a crafted length field costs bytes
// actually sent, not bytes declared.
func readSnapshotV1(r io.Reader, maxBytes int64) (*mac.Network, error) {
	var header [12]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	size := binary.LittleEndian.Uint64(header[0:8])
	if size > uint64(maxBytes) {
		return nil, fmt.Errorf("dataset: snapshot payload of %d bytes exceeds the %d limit", size, maxBytes)
	}
	want := binary.LittleEndian.Uint32(header[8:12])
	var buf bytes.Buffer
	if n, err := io.CopyN(&buf, r, int64(size)); err != nil {
		return nil, fmt.Errorf("dataset: snapshot truncated at byte %d of %d: %w", n, size, err)
	}
	payload := buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("dataset: snapshot checksum mismatch (got %08x, want %08x)", got, want)
	}
	return decodeSnapshotV1(payload)
}

// decodeSnapshotV1 decodes a verified v1 payload into a network.
func decodeSnapshotV1(payload []byte) (*mac.Network, error) {
	br := bytes.NewReader(payload)
	gs, err := decodeSocial(br)
	if err != nil {
		return nil, err
	}
	gr, err := road.DecodeGraph(br)
	if err != nil {
		return nil, err
	}
	locs := make([]road.Location, gs.N())
	for i := range locs {
		if locs[i], err = road.DecodeLocation(br, gr); err != nil {
			return nil, fmt.Errorf("dataset: snapshot location %d: %w", i, err)
		}
	}
	net := &mac.Network{Social: gs, Road: gr, Locs: locs}
	hasGT, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dataset: snapshot gtree flag: %w", err)
	}
	if hasGT == 1 {
		gt, err := road.DecodeGTree(br, gr)
		if err != nil {
			return nil, err
		}
		net.Oracle = gt
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("dataset: snapshot carries %d trailing bytes", br.Len())
	}
	return net, net.Validate()
}

// WriteSnapshotFile writes the snapshot atomically (durable.WriteFile): a
// crashed writer never leaves a half-written snapshot under the real name,
// and a returned nil means the file survives a crash.
func WriteSnapshotFile(path string, net *mac.Network) error {
	return WriteSnapshotFileVersion(path, net, 0)
}

// WriteSnapshotFileVersion is WriteSnapshotFile with a version stamp (see
// WriteSnapshotVersion).
func WriteSnapshotFileVersion(path string, net *mac.Network, version uint64) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		return WriteSnapshotVersion(w, net, version)
	})
}

// ReadSnapshotFile loads a snapshot from disk. RSNAPv2 files are
// memory-mapped (on platforms with mmap; a build-tag fallback reads into an
// aligned buffer) and validated in place, so registering costs page faults
// rather than decoding and no buffering cap applies; RSNAPv1 files take the
// legacy decode path, capped only by the actual file size.
func ReadSnapshotFile(path string) (*mac.Network, error) {
	net, _, err := ReadSnapshotFileVersion(path)
	return net, err
}

// ReadSnapshotFileVersion is ReadSnapshotFile surfacing the dataset
// mutation version stamped in the RSNAPv2 header (0 for v1 and unstamped
// files).
func ReadSnapshotFileVersion(path string) (*mac.Network, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot header: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	switch string(magic[:]) {
	case snapshotMagicV2:
		hold, err := mapFile(f, st.Size())
		if err != nil {
			return nil, 0, fmt.Errorf("dataset: snapshot map: %w", err)
		}
		net, version, err := loadSnapshotV2(hold.data, hold)
		if err != nil {
			hold.close()
			return nil, 0, err
		}
		return net, version, nil
	case snapshotMagic:
		net, err := readSnapshotV1(f, st.Size())
		return net, 0, err
	default:
		return nil, 0, fmt.Errorf("dataset: not a snapshot (or unsupported version): magic %q", magic[:])
	}
}

// encodeSocial writes the social graph: header (n, d, m), the undirected
// edge list (u < v in adjacency order), the attribute matrix, and the
// labels (count-prefixed; all-empty label sets collapse to a zero count).
func encodeSocial(buf *bytes.Buffer, g *social.Graph) error {
	putUvarint(buf, uint64(g.N()))
	putUvarint(buf, uint64(g.D()))
	putUvarint(buf, uint64(g.M()))
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int32(u) < v {
				putUvarint(buf, uint64(u))
				putUvarint(buf, uint64(v))
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, x := range g.Attrs(v) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf.Write(b[:])
		}
	}
	labeled := 0
	for v := 0; v < g.N(); v++ {
		if g.Label(v) != "" {
			labeled++
		}
	}
	putUvarint(buf, uint64(labeled))
	for v := 0; v < g.N(); v++ {
		if l := g.Label(v); l != "" {
			putUvarint(buf, uint64(v))
			putUvarint(buf, uint64(len(l)))
			buf.WriteString(l)
		}
	}
	return nil
}

func decodeSocial(br *bytes.Reader) (*social.Graph, error) {
	n, err1 := binary.ReadUvarint(br)
	d, err2 := binary.ReadUvarint(br)
	m, err3 := binary.ReadUvarint(br)
	if err1 != nil || err2 != nil || err3 != nil {
		return nil, fmt.Errorf("dataset: snapshot social header truncated")
	}
	// Bound every declared count by the bytes actually present before
	// allocating: the payload came off the network, and a crafted header
	// must not turn a small body into a huge allocation. A valid snapshot
	// carries 8·n·d attribute bytes and ≥ 2 bytes per edge.
	rem := uint64(br.Len())
	if d < 1 || d > rem || n > rem/8 || n*d*8 > rem {
		return nil, fmt.Errorf("dataset: snapshot social header (n=%d, d=%d) exceeds the %d remaining payload bytes", n, d, rem)
	}
	if m*2 > rem {
		return nil, fmt.Errorf("dataset: snapshot edge count %d exceeds the %d remaining payload bytes", m, rem)
	}
	b := social.NewBuilder(int(n), int(d))
	for i := uint64(0); i < m; i++ {
		u, err1 := binary.ReadUvarint(br)
		v, err2 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: snapshot social edge %d truncated", i)
		}
		b.AddEdge(int(u), int(v))
	}
	x := make([]float64, d)
	for v := uint64(0); v < n; v++ {
		for i := range x {
			var raw [8]byte
			if _, err := io.ReadFull(br, raw[:]); err != nil {
				return nil, fmt.Errorf("dataset: snapshot attributes truncated at vertex %d", v)
			}
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
		}
		b.SetAttrs(int(v), x)
	}
	labeled, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: snapshot label count: %w", err)
	}
	for i := uint64(0); i < labeled; i++ {
		v, err1 := binary.ReadUvarint(br)
		l, err2 := binary.ReadUvarint(br)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("dataset: snapshot label %d truncated", i)
		}
		if l > uint64(br.Len()) {
			return nil, fmt.Errorf("dataset: snapshot label of %d bytes exceeds the %d remaining payload bytes", l, br.Len())
		}
		name := make([]byte, l)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, fmt.Errorf("dataset: snapshot label %d truncated", i)
		}
		if v >= n {
			return nil, fmt.Errorf("dataset: snapshot label vertex %d out of range", v)
		}
		b.SetLabel(int(v), string(name))
	}
	return b.Build()
}

func putUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	buf.Write(b[:binary.PutUvarint(b[:], v)])
}
