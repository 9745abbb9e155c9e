package ung

import (
	"encoding/binary"
	"fmt"

	"repro/internal/uia"
)

// Binary snapshot codec. The JSON codec in snapshot.go is self-describing
// and greppable, but a graph snapshot is also the modelstore's unit of
// budget accounting (per-model cost = encoded bytes), so codec bloat
// directly shrinks the effective warm-cache budget. The binary form cuts
// the field-name and quoting overhead: a length-prefixed, versioned layout
// that preserves exactly what the JSON form preserves — node metadata,
// discovery order, and the insertion order of both edge lists — so the two
// encodings decode to identical graphs.
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
// so spelling each edge out again is most of the JSON form's weight. flags
// is a single byte; bit 0 is LargeEnum, the remaining bits must be zero (a
// decoder from the future rejecting unknown flags beats one silently
// dropping them). Decode is strict: a short buffer, a version skew, an
// out-of-range edge index, or trailing bytes after the last node are all
// distinct errors, and the decoded graph passes the same structural
// validation as the JSON path.

// binaryMagic opens every binary snapshot (a JSON one always starts with
// '{'), so a payload in the wrong encoding fails fast.
const binaryMagic = "UNGB"

// BinaryVersion is the binary layout version. Bumped on any layout change;
// Decode rejects other versions as skew instead of misparsing them.
const BinaryVersion = 1

// largeEnumFlag is bit 0 of the per-node flags byte.
const largeEnumFlag = 0x01

// EncodeBinary serializes the graph to the compact binary snapshot form.
// Like Encode, nodes are written in discovery order.
func EncodeBinary(g *Graph) ([]byte, error) {
	// Pre-size: magic+version+count headers plus per-node strings; the
	// estimate only has to be in the right ballpark to avoid regrowth.
	size := len(binaryMagic) + 2*binary.MaxVarintLen64 + len(g.App)
	for _, id := range g.Order {
		if n, ok := g.Nodes[id]; ok {
			size += len(n.ID) + len(n.Name) + len(n.Desc) + len(n.Context) + 16
		}
	}
	index := make(map[string]uint64, len(g.Order))
	for i, id := range g.Order {
		index[id] = uint64(i)
	}
	var err error
	buf := make([]byte, 0, size)
	buf = append(buf, binaryMagic...)
	buf = binary.AppendUvarint(buf, BinaryVersion)
	buf = appendString(buf, g.App)
	buf = binary.AppendUvarint(buf, uint64(len(g.Order)))
	for _, id := range g.Order {
		n, ok := g.Nodes[id]
		if !ok {
			return nil, fmt.Errorf("ung: order references missing node %q", id)
		}
		if n.Type < 0 {
			return nil, fmt.Errorf("ung: node %q has negative control type %d", id, n.Type)
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
		if buf, err = appendEdges(buf, n.Out, index); err != nil {
			return nil, fmt.Errorf("ung: node %q: %w", id, err)
		}
		if buf, err = appendEdges(buf, n.In, index); err != nil {
			return nil, fmt.Errorf("ung: node %q: %w", id, err)
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendEdges(buf []byte, edges []string, index map[string]uint64) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	for _, e := range edges {
		i, ok := index[e]
		if !ok {
			return nil, fmt.Errorf("edge references unknown node %q", e)
		}
		buf = binary.AppendUvarint(buf, i)
	}
	return buf, nil
}

// DecodeBinary reconstructs a graph from its EncodeBinary form, enforcing
// the same structural invariants as the JSON Decode. Failure modes are
// distinct and strict: wrong magic, version skew, truncation, non-zero
// unknown flags, and trailing garbage each fail with a named error rather
// than a best-effort graph.
func DecodeBinary(data []byte) (*Graph, error) {
	r := binReader{data: data}
	if len(data) < len(binaryMagic) || string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("ung: decode binary: missing %q magic", binaryMagic)
	}
	r.off = len(binaryMagic)
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
	// Every node carries at least a handful of bytes; a count claiming more
	// nodes than remaining bytes is corruption, refused before allocation.
	if count > uint64(len(data)-r.off) {
		return nil, fmt.Errorf("ung: decode binary: node count %d exceeds payload", count)
	}
	g := &Graph{App: app, Nodes: make(map[string]*Node, count)}
	// Edge indexes may point forward to nodes not yet read, so they are
	// collected raw and resolved to ids after the node array is complete.
	outIdx := make([][]uint64, count)
	inIdx := make([][]uint64, count)
	for i := uint64(0); i < count; i++ {
		n := &Node{}
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
		if outIdx[i], err = r.edgeIndexes("out edges", count); err != nil {
			return nil, err
		}
		if inIdx[i], err = r.edgeIndexes("in edges", count); err != nil {
			return nil, err
		}
		if i == 0 && n.ID != RootID {
			return nil, fmt.Errorf("ung: decode binary: snapshot does not start at the virtual root")
		}
		if _, dup := g.Nodes[n.ID]; dup {
			return nil, fmt.Errorf("ung: decode binary: duplicate node %q", n.ID)
		}
		g.Nodes[n.ID] = n
		g.Order = append(g.Order, n.ID)
	}
	if count == 0 {
		return nil, fmt.Errorf("ung: decode binary: snapshot does not start at the virtual root")
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("ung: decode binary: %d trailing bytes after the last node", len(data)-r.off)
	}
	for i, id := range g.Order {
		n := g.Nodes[id]
		n.Out = resolveEdges(outIdx[i], g.Order)
		n.In = resolveEdges(inIdx[i], g.Order)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ung: decode binary: %w", err)
	}
	return g, nil
}

// resolveEdges maps edge indexes back to node ids; indexes were already
// bounds-checked against the node count at read time.
func resolveEdges(idxs []uint64, order []string) []string {
	if len(idxs) == 0 {
		return nil // empty edge lists stay nil, the canonical form
	}
	edges := make([]string, len(idxs))
	for i, idx := range idxs {
		edges[i] = order[idx]
	}
	return edges
}

// binReader walks the binary layout with bounds checking; every read
// failure names the field that was being read when the payload ran out.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	r.off += n
	return v, nil
}

func (r *binReader) byte(field string) (byte, error) {
	if r.off >= len(r.data) {
		return 0, fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *binReader) str(field string) (string, error) {
	n, err := r.uvarint(field)
	if err != nil {
		return "", err
	}
	if n > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *binReader) edgeIndexes(field string, nodeCount uint64) ([]uint64, error) {
	n, err := r.uvarint(field)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("ung: decode binary: truncated %s", field)
	}
	idxs := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		idx, err := r.uvarint(field)
		if err != nil {
			return nil, err
		}
		if idx >= nodeCount {
			return nil, fmt.Errorf("ung: decode binary: %s index %d out of range (%d nodes)", field, idx, nodeCount)
		}
		idxs = append(idxs, idx)
	}
	return idxs, nil
}
