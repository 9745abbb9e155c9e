package ung

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/uia"
)

// Graph snapshot codec. A snapshot lets the offline artifact be persisted
// and reloaded without re-ripping the application (internal/modelstore
// builds on it), and its size is the modelstore's unit of budget accounting
// (per-model cost = encoded bytes). The encoding preserves everything
// downstream consumers depend on — node metadata, discovery order, and the
// insertion order of both edge lists — so a decoded graph transforms into
// the identical forest and identifier assignment.
//
// Layout (all integers are unsigned varints, strings are varint-length-
// prefixed UTF-8):
//
//	magic "UNGB" | version | app | nodeCount |
//	  nodeCount × ( id | name | type | desc | flags | context |
//	                outCount × nodeIndex | inCount × nodeIndex )
//
// Edges are varint indexes into the node array (discovery order), not
// repeated id strings — synthesized control ids embed whole ancestor paths,
// so spelling each edge out again would dominate the payload. flags
// is a single byte; bit 0 is LargeEnum, the remaining bits must be zero (a
// decoder from the future rejecting unknown flags beats one silently
// dropping them). DecodeBinary is strict: a short buffer, a version skew, an
// out-of-range edge index, or trailing bytes after the last node are all
// distinct errors, and the decoded graph must pass Graph.Validate's checks.

// binaryMagic opens every snapshot, so a payload in another encoding fails
// fast.
const binaryMagic = "UNGB"

// BinaryVersion is the binary layout version. Bumped on any layout change;
// DecodeBinary rejects other versions as skew instead of misparsing them.
const BinaryVersion = 1

// largeEnumFlag is bit 0 of the per-node flags byte.
const largeEnumFlag = 0x01

// minNodeBytes is the smallest encoded node: one byte each for the id,
// name, desc and context lengths, the type, the flags, and the two edge
// counts.
const minNodeBytes = 8

// EncodeBinary serializes the graph to the snapshot form, nodes in
// discovery order. Edges are written as the indexes they already are.
func EncodeBinary(g *Graph) ([]byte, error) {
	// Pre-size: magic+version+count headers plus per-node strings; the
	// estimate only has to be in the right ballpark to avoid regrowth.
	size := len(binaryMagic) + 2*binary.MaxVarintLen64 + len(g.App)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		size += len(n.ID) + len(n.Name) + len(n.Desc) + len(n.Context) + 16
	}
	buf := make([]byte, 0, size)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, BinaryVersion)
	buf = appendString(buf, g.App)
	buf = binary.AppendUvarint(buf, uint64(len(g.Nodes)))
	for i := range int32(len(g.Nodes)) {
		n := &g.Nodes[i]
		if n.Type < 0 {
			return nil, negativeType(n)
		}
		buf = appendString(buf, n.ID)
		buf = appendString(buf, n.Name)
		buf = binary.AppendUvarint(buf, uint64(n.Type))
		buf = appendString(buf, n.Desc)
		var flags byte
		if n.LargeEnum {
			flags |= largeEnumFlag
		}
		buf = append(buf, flags)
		buf = appendString(buf, n.Context)
		buf = appendEdges(buf, g.Out(i))
		buf = appendEdges(buf, g.In(i))
	}
	return buf, nil
}

// EncodedSize returns len(EncodeBinary(g)), and the same error for a
// negative control type, without building the payload: a store that keeps
// its models in memory only needs the size, as their budget cost.
func EncodedSize(g *Graph) (int, error) {
	size := len(binaryMagic) + uvarintLen(BinaryVersion) + stringLen(g.App) + uvarintLen(uint64(len(g.Nodes)))
	for i := range int32(len(g.Nodes)) {
		n := &g.Nodes[i]
		if n.Type < 0 {
			return 0, negativeType(n)
		}
		const flags = 1 // the flags byte
		size += stringLen(n.ID) + stringLen(n.Name) + uvarintLen(uint64(n.Type)) + stringLen(n.Desc) +
			flags + stringLen(n.Context) + edgesLen(g.Out(i)) + edgesLen(g.In(i))
	}
	return size, nil
}

// negativeType is the error EncodeBinary and EncodedSize return for a node
// whose control type has no encoding.
func negativeType(n *Node) error {
	return fmt.Errorf("ung: node %q has negative control type %d", n.ID, n.Type)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func edgesLen(edges []int32) int {
	n := uvarintLen(uint64(len(edges)))
	for _, e := range edges {
		n += uvarintLen(uint64(e))
	}
	return n
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendEdges(buf []byte, edges []int32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(e))
	}
	return buf
}

// DecodeBinary reconstructs a graph from its EncodeBinary form and
// validates its structural invariants before returning it. Failure modes are
// distinct and strict: wrong magic, version skew, truncation, non-zero
// unknown flags, and trailing garbage each fail with a named error rather
// than a best-effort graph.
//
// The payload is copied into one string up front and decoded by
// DecodeBinaryString, so a decode costs one copy rather than four per node,
// and the graph never aliases data.
func DecodeBinary(data []byte) (*Graph, error) {
	return DecodeBinaryString(string(data))
}

// DecodeBinaryString is DecodeBinary over a payload already held as a
// string: every decoded string is a substring of s, so a caller that reads
// a snapshot straight into a string decodes it without a copy.
func DecodeBinaryString(s string) (*Graph, error) {
	if len(s) < len(binaryMagic) || s[:len(binaryMagic)] != binaryMagic {
		return nil, fmt.Errorf("ung: decode binary: missing %q magic", binaryMagic)
	}
	r := binReader{s: s, off: len(binaryMagic)}
	version, err := r.uvarint("version")
	if err != nil {
		return nil, err
	}
	if version != BinaryVersion {
		return nil, fmt.Errorf("ung: decode binary: snapshot version %d, this build reads version %d", version, BinaryVersion)
	}
	app, err := r.str("app")
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint("node count")
	if err != nil {
		return nil, err
	}
	// Every node carries at least minNodeBytes; a count claiming more nodes
	// than the remaining bytes can hold is corruption, refused before the
	// per-node arrays are allocated.
	if count > uint64(len(s)-r.off)/minNodeBytes {
		return nil, fmt.Errorf("ung: decode binary: node count %d exceeds payload", count)
	}
	// Node indexes and edge offsets are int32s; every edge takes at least a
	// byte, so a payload under 2 GiB overflows neither.
	if len(s) > math.MaxInt32 {
		return nil, fmt.Errorf("ung: decode binary: payload of %d bytes exceeds 2 GiB", len(s))
	}
	g := &Graph{App: app, Nodes: make([]Node, count), off: make([]int32, 1, 2*count+1)}
	ids := newIDSet(int(count))
	// Every node but the root has an in edge, and every edge is listed
	// twice (out and in); a ripped graph has a few more edges than nodes,
	// so the buffer starts with room for a quarter more.
	g.edges = make([]int32, 0, 2*count+count/4)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID, err = r.str("node id"); err != nil {
			return nil, err
		}
		if n.Name, err = r.str("node name"); err != nil {
			return nil, err
		}
		ctype, err := r.uvarint("control type")
		if err != nil {
			return nil, err
		}
		if ctype > uint64(int(^uint(0)>>1)) {
			return nil, fmt.Errorf("ung: decode binary: control type %d out of range", ctype)
		}
		n.Type = uia.ControlType(ctype)
		if n.Desc, err = r.str("node desc"); err != nil {
			return nil, err
		}
		flags, err := r.byte("node flags")
		if err != nil {
			return nil, err
		}
		if flags&^byte(largeEnumFlag) != 0 {
			return nil, fmt.Errorf("ung: decode binary: unknown node flags %#x", flags)
		}
		n.LargeEnum = flags&largeEnumFlag != 0
		if n.Context, err = r.str("node context"); err != nil {
			return nil, err
		}
		if g.edges, err = r.edges(g.edges, "out edges", count); err != nil {
			return nil, err
		}
		g.off = append(g.off, int32(len(g.edges)))
		if g.edges, err = r.edges(g.edges, "in edges", count); err != nil {
			return nil, err
		}
		g.off = append(g.off, int32(len(g.edges)))
		if i == 0 && n.ID != RootID {
			return nil, fmt.Errorf("ung: decode binary: snapshot does not start at the virtual root")
		}
		if !ids.add(g.Nodes, int32(i)) {
			return nil, fmt.Errorf("ung: decode binary: duplicate node %q", n.ID)
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("ung: decode binary: snapshot does not start at the virtual root")
	}
	if r.off != len(s) {
		return nil, fmt.Errorf("ung: decode binary: %d trailing bytes after the last node", len(s)-r.off)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ung: decode binary: %w", err)
	}
	return g, nil
}

// idSeed hashes node ids for idSet.
var idSeed = maphash.MakeSeed()

// idSet finds nodes by id: an open-addressing table of node indexes plus
// one (0 is an empty slot), at most half full, hashed by id. It holds no
// pointers, so the collector never scans it. It is a graph's id index
// while the graph is built, and the decoder's duplicate-id check, dropped
// with the decode: a decoded graph keeps no id index.
type idSet []int32

func newIDSet(n int) idSet {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	return make(idSet, size)
}

// slot returns the slot of id: the one holding its node, or the empty
// one where it goes.
func (t idSet) slot(nodes []Node, id string) uint64 {
	mask := uint64(len(t) - 1)
	for h := maphash.String(idSeed, id) & mask; ; h = (h + 1) & mask {
		if j := t[h]; j == 0 || nodes[j-1].ID == id {
			return h
		}
	}
}

// add records node i of nodes and reports whether no earlier node shares
// its id.
func (t idSet) add(nodes []Node, i int32) bool {
	h := t.slot(nodes, nodes[i].ID)
	if t[h] != 0 {
		return false
	}
	t[h] = i + 1
	return true
}

// binReader walks the binary layout with bounds checking; every read
// failure names the field that was being read when the payload ran out.
// Every string the reader returns is a substring of s.
type binReader struct {
	s   string
	off int
}

// uvarint reads one unsigned varint as binary.Uvarint does; a varint that
// runs past the payload or past 64 bits is truncation.
func (r *binReader) uvarint(field string) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64 && r.off+i < len(r.s); i++ {
		b := r.s[r.off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // overflow
			}
			r.off += i + 1
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("ung: decode binary: truncated %s", field)
}

func (r *binReader) byte(field string) (byte, error) {
	if r.off >= len(r.s) {
		return 0, fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	b := r.s[r.off]
	r.off++
	return b, nil
}

func (r *binReader) str(field string) (string, error) {
	n, err := r.uvarint(field)
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.s)-r.off) {
		return "", fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	s := r.s[r.off : r.off+int(n)]
	r.off += int(n)
	return s, nil
}

// edges reads one edge list and appends it to buf.
func (r *binReader) edges(buf []int32, field string, nodeCount uint64) ([]int32, error) {
	n, err := r.uvarint(field)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.s)-r.off) {
		return nil, fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	for i := uint64(0); i < n; i++ {
		idx, err := r.uvarint(field)
		if err != nil {
			return nil, err
		}
		if idx >= nodeCount {
			return nil, fmt.Errorf("ung: decode binary: %s index %d out of range (%d nodes)", field, idx, nodeCount)
		}
		buf = append(buf, int32(idx))
	}
	return buf, nil
}
