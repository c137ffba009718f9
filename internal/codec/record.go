package codec

// This file carries the transport-layer encodings the real-socket cluster
// engine (internal/net) speaks: a length-prefixed record framing and the
// handshake records (Hello, Welcome) exchanged before a run. The chunk
// payloads on the worker mesh reuse the per-message body codec of
// internal/shard and are priced with its FrameHeader, so the ledger a
// socket run reports is the one the in-process sharded engine accounts. DESIGN.md §8 is the normative
// wire-protocol spec.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxRecord is the default cap a record reader enforces on one record's
// payload length. Frames carry at most one round of one shard pair's
// traffic, so legitimate records stay far below it; a corrupt or hostile
// length prefix fails fast instead of driving a huge allocation.
const MaxRecord = 1 << 26 // 64 MiB

// AppendRecord appends the record framing of payload to dst: a uvarint
// payload length followed by the payload bytes.
func AppendRecord(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// ByteStream is the reader shape ReadRecord consumes: a stream with
// single-byte reads for the uvarint length prefix (bufio.Reader satisfies
// it).
type ByteStream interface {
	io.Reader
	io.ByteReader
}

// ReadRecord reads one length-prefixed record from r, reusing buf when it
// is large enough, and returns the payload. limit caps the accepted payload
// length (0 means MaxRecord). io.EOF is returned untouched when the stream
// ends cleanly before the length prefix; any other truncation is an error.
func ReadRecord(r ByteStream, buf []byte, limit int) ([]byte, error) {
	if limit <= 0 {
		limit = MaxRecord
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("codec: record length: %w", err)
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("codec: record of %d bytes exceeds limit %d", n, limit)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("codec: truncated record: %w", err)
	}
	return buf, nil
}

// Threshold-set kinds a Hello can describe. Only Reals and PowerGrid have a
// wire form; any other quantize.Lambda is Opaque — the handshake then only
// verifies that both sides agree on its Name, which is all an in-process
// transport (whose workers share the coordinator's Lambda value) needs.
const (
	LamReals     = 0 // Λ = ℝ (also the nil Lambda)
	LamPowerGrid = 1 // powers of (1+λ); LamL carries λ
	LamOpaque    = 2 // any other Lambda; LamName carries its Name()
)

// Hello is the coordinator→worker handshake record: everything a worker
// needs to verify — or, in a separate process, to reconstruct — the run
// configuration before the first round. GraphHash and PartDigest pin the
// inputs (graph.Fingerprint and shard.PartitionDigest); the spec strings
// are empty for in-process workers, which already hold the graph and
// factory, and carry the generator/partitioner/protocol descriptions for
// cmd/cluster workers.
type Hello struct {
	Version    int
	P          int // worker (shard) count
	Shard      int // this worker's shard index in [0, P)
	MaxRounds  int
	GraphHash  uint64
	PartDigest uint64
	// DeltaDigest pins the churn batch of the run (dist.GraphDelta.Digest).
	// Non-zero means a delta record follows the hello: the worker must
	// apply that batch to its pre-churn graph before welcoming, and
	// GraphHash/PartDigest above pin the *post-churn* graph and the
	// *rebalanced* assignment. Zero means no churn and the digests pin the
	// inputs as resolved.
	DeltaDigest uint64
	LamKind     byte    // LamReals | LamPowerGrid | LamOpaque
	LamL        float64 // λ when LamKind == LamPowerGrid
	LamName     string  // Lambda.Name() when LamKind == LamOpaque
	GraphSpec   string  // e.g. "ba:10000:7"; empty in-process
	PartName    string  // partitioner name, e.g. "greedy"
	ProtoSpec   string  // e.g. "coreness:23"; empty in-process
	WantValues  bool    // ship per-node result values after the metrics record
	// Recover arms crash recovery (DESIGN.md §13): the worker checkpoints
	// its driver state after every delivery and must honor Resume/Replay
	// records after a re-admission handshake.
	Recover bool
	// MeshKind selects the topology of the worker↔worker mesh that carries
	// round traffic (DESIGN.md §14): MeshFull or MeshCube. Every worker
	// must agree (relay routing depends on it), so the coordinator decides
	// and the hello pins it.
	MeshKind byte
	// MeshSpec names the workers' listen addresses (comma-joined, indexed
	// by shard) for multi-process clusters, where mesh links share each
	// worker's coordinator listener; empty in-process, where the engine
	// wires the mesh through an in-memory broker.
	MeshSpec string
}

// Mesh topologies a streamed hello can pin (DESIGN.md §14).
const (
	// MeshFull is a full mesh: every worker holds a data connection to
	// every other worker, one hop per flow.
	MeshFull = byte(0)
	// MeshCube is a hypercube: workers connect to their log2(P) bit
	// neighbors and relay flows dimension-ordered (e-cube), so the per-
	// worker connection count stays logarithmic at large P. Requires P to
	// be a power of two.
	MeshCube = byte(1)
)

// HandshakeVersion is the protocol version stamped into Hello and Welcome;
// both sides reject a peer speaking any other version. Version 2 added
// DeltaDigest and the delta record of the churn protocol (DESIGN.md §9);
// version 3 added Hello.Recover and the checkpoint/resume/replay records of
// the crash-recovery protocol (DESIGN.md §13); version 4 added the streamed
// delivery fields and the mesh record types of DESIGN.md §14; version 5
// made the mesh the only round delivery — Hello.Stream is gone, and the
// coordinator-relay records 4, 5, 6 and 21 are retired; version 6 dropped
// Hello.Window and Replay.Frames, which only ever carried the constants 0
// (the flow-control window is a protocol constant).
const HandshakeVersion = 6

// AppendHello appends the wire encoding of h to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	dst = binary.AppendUvarint(dst, uint64(h.P))
	dst = binary.AppendUvarint(dst, uint64(h.Shard))
	dst = binary.AppendUvarint(dst, uint64(h.MaxRounds))
	dst = binary.LittleEndian.AppendUint64(dst, h.GraphHash)
	dst = binary.LittleEndian.AppendUint64(dst, h.PartDigest)
	dst = binary.LittleEndian.AppendUint64(dst, h.DeltaDigest)
	dst = append(dst, h.LamKind)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(h.LamL))
	dst = appendString(dst, h.LamName)
	dst = appendString(dst, h.GraphSpec)
	dst = appendString(dst, h.PartName)
	dst = appendString(dst, h.ProtoSpec)
	dst = appendBool(dst, h.WantValues)
	dst = appendBool(dst, h.Recover)
	dst = append(dst, h.MeshKind)
	return appendString(dst, h.MeshSpec)
}

// DecodeHello decodes a Hello and returns the number of bytes consumed.
func DecodeHello(src []byte) (Hello, int, error) {
	var h Hello
	d := decoder{src: src}
	h.Version = int(d.uvarint())
	h.P = int(d.uvarint())
	h.Shard = int(d.uvarint())
	h.MaxRounds = int(d.uvarint())
	h.GraphHash = d.u64()
	h.PartDigest = d.u64()
	h.DeltaDigest = d.u64()
	h.LamKind = d.byte()
	h.LamL = math.Float64frombits(d.u64())
	h.LamName = d.string()
	h.GraphSpec = d.string()
	h.PartName = d.string()
	h.ProtoSpec = d.string()
	h.WantValues = d.byte() != 0
	h.Recover = d.byte() != 0
	h.MeshKind = d.byte()
	h.MeshSpec = d.string()
	if d.err != nil {
		return Hello{}, 0, fmt.Errorf("codec: bad hello record: %w", d.err)
	}
	return h, d.n, nil
}

// Welcome is the worker→coordinator handshake reply: the worker echoes the
// pinned digests (so a mismatch is detected on whichever side notices
// first) and reports how many nodes its shard owns.
type Welcome struct {
	Version    int
	Shard      int
	GraphHash  uint64
	PartDigest uint64
	Nodes      int // nodes assigned to this worker's shard
}

// AppendWelcome appends the wire encoding of w to dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.Version))
	dst = binary.AppendUvarint(dst, uint64(w.Shard))
	dst = binary.LittleEndian.AppendUint64(dst, w.GraphHash)
	dst = binary.LittleEndian.AppendUint64(dst, w.PartDigest)
	return binary.AppendUvarint(dst, uint64(w.Nodes))
}

// DecodeWelcome decodes a Welcome and returns the number of bytes consumed.
func DecodeWelcome(src []byte) (Welcome, int, error) {
	var w Welcome
	d := decoder{src: src}
	w.Version = int(d.uvarint())
	w.Shard = int(d.uvarint())
	w.GraphHash = d.u64()
	w.PartDigest = d.u64()
	w.Nodes = int(d.uvarint())
	if d.err != nil {
		return Welcome{}, 0, fmt.Errorf("codec: bad welcome record: %w", d.err)
	}
	return w, d.n, nil
}

// appendString appends a uvarint length followed by the string bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBool appends a 0/1 flag byte.
func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decoder is a cursor over src that latches the first error, so the record
// decoders above read field after field without per-field error plumbing.
type decoder struct {
	src []byte
	n   int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, k := binary.Uvarint(d.src[d.n:])
	if k <= 0 {
		d.err = fmt.Errorf("truncated uvarint at offset %d", d.n)
		return 0
	}
	d.n += k
	return u
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.src[d.n:]) < 8 {
		d.err = fmt.Errorf("truncated word at offset %d", d.n)
		return 0
	}
	u := binary.LittleEndian.Uint64(d.src[d.n:])
	d.n += 8
	return u
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.n >= len(d.src) {
		d.err = fmt.Errorf("truncated byte at offset %d", d.n)
		return 0
	}
	b := d.src[d.n]
	d.n++
	return b
}

func (d *decoder) string() string {
	l := d.uvarint()
	if d.err != nil {
		return ""
	}
	// Compare in uint64: a hostile length near 2^64 must not wrap negative
	// through int and slip past the bounds check into a panic.
	if l > uint64(len(d.src)-d.n) {
		d.err = fmt.Errorf("truncated string at offset %d", d.n)
		return ""
	}
	s := string(d.src[d.n : d.n+int(l)])
	d.n += int(l)
	return s
}
