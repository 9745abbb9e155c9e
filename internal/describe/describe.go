// Package describe converts the path-unambiguous forest into the compact,
// hierarchical textual representation consumed by the LLM (paper §3.3,
// §4.2):
//
//	name(type)(description)_id[children]
//
// Parentheses mark optional fields and square brackets encode nesting. Node
// ids are unique consecutive integers assigned once over the whole forest,
// so identifiers remain stable between the pruned core topology and
// further_query expansions. Large enumerations and manually excluded nodes
// are pruned from core topologies, with elision markers showing where
// further_query can expand.
package describe

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/forest"
	"repro/internal/strutil"
	"repro/internal/uia"
)

// Model binds a forest to its integer node identifiers.
type Model struct {
	Forest *forest.Forest

	// byID lists the nodes by integer id: ids are consecutive from 0, in
	// forest order, so a node's id is its forest position (Node.Pos).
	byID []*forest.Node
	// treeStart holds the id of each shared subtree's root, in SharedOrder:
	// the ids of shared subtree k run from treeStart[k] up to the next one.
	treeStart []int
	// refsTo lists reference nodes pointing at each shared subtree.
	refsTo map[string][]*forest.Node

	// coreText is the core-topology rendering, memoized at construction
	// (or read back from a snapshot, see Restore): the model is frozen once
	// built (concurrent sessions share it read-only), every session's first
	// prompt carries it, and the store counts its tokens.
	coreText string

	// fullText is the complete rendering, rendered by the first Full call:
	// only further_query(-1) reads it, so a model no session asks for the
	// whole topology never pays for it. fullOnce makes the first call safe
	// from any number of sessions at once.
	fullOnce sync.Once
	fullText string

	// names lists the ids of the nodes carrying each primary id and each
	// name (see IDsNamed). It is built on first use, not in NewModel: a
	// restart from snapshots builds every catalog model, for models no
	// session may resolve against. nameOnce makes the first use safe from
	// any number of sessions at once.
	nameOnce sync.Once
	names    nameIndex
}

// nameIndex is IDsNamed's index: the ids of the nodes carrying each key,
// grouped by key in one array, each group in id order, and an
// open-addressing table from a key's hash to its group. It holds no
// pointers and no strings, since a group's key is read off its first
// node, so for the catalog it takes about 0.27 MB where a map from key to
// id slice took 1.2 MB.
type nameIndex struct {
	ids   []int32 // node ids, grouped by key
	start []int32 // group k is ids[start[k]:start[k+1]]
	// key[k] says where group k's key is read: node<<1 | 1 for its first
	// node's name, node<<1 for that node's primary id.
	key []int32
	// slots is the table, at most three quarters full: 0 is an empty
	// slot, else 1 + a group.
	slots []int32
}

// nameSeed hashes the name index's keys.
var nameSeed = maphash.MakeSeed()

// NewModel assigns consecutive integer ids across the main tree (first) and
// every shared subtree (in externalization order): the forest's own order,
// so the id of a node is its forest position. A transformed forest already
// carries its positions; a hand-built one gets them from its first model
// (Forest.Number), so build that before sharing the forest across
// goroutines.
func NewModel(f *forest.Forest) *Model {
	m := identify(f)
	// The core renders 8–10 bytes a node on the Office apps, whose large
	// enumerations it drops, and 26–33 on the small apps; this capacity
	// fits all five catalog apps without growing.
	m.coreText = string(m.appendForest(make([]byte, 0, max(12*len(m.byID), 16<<10)), CoreOptions()))
	return m
}

// Restore is NewModel with the core rendering supplied instead of
// rendered: core must be what NewModel rendered for an equal forest, as a
// snapshot records it (internal/modelstore), and Core returns it as given.
func Restore(f *forest.Forest, core string) *Model {
	m := identify(f)
	m.coreText = core
	return m
}

// identify builds a model's id tables, the setup NewModel and Restore
// share.
func identify(f *forest.Forest) *Model {
	m := &Model{
		Forest:    f,
		byID:      f.Number(),
		treeStart: make([]int, len(f.SharedOrder)),
		refsTo:    make(map[string][]*forest.Node, len(f.Shared)),
	}
	for k, id := range f.SharedOrder {
		m.treeStart[k] = f.Shared[id].Pos()
	}
	for _, n := range m.byID {
		if n.IsRef() {
			m.refsTo[n.RefTarget] = append(m.refsTo[n.RefTarget], n)
		}
	}
	return m
}

// Core returns the memoized core-topology rendering — identical to
// Serialize(CoreOptions()) but free after construction.
func (m *Model) Core() string { return m.coreText }

// Full returns the complete rendering — identical to
// Serialize(FullOptions()). The first call renders it; later calls are
// free.
func (m *Model) Full() string {
	m.fullOnce.Do(m.renderFull)
	return m.fullText
}

func (m *Model) renderFull() {
	// The full rendering runs 32–37 bytes a node on the catalog apps, so
	// with this capacity the buffer seldom grows.
	m.fullText = string(m.appendForest(make([]byte, 0, 40*len(m.byID)), FullOptions()))
}

// Node returns the forest node for an integer id, or nil.
func (m *Model) Node(id int) *forest.Node {
	if id < 0 || id >= len(m.byID) {
		return nil
	}
	return m.byID[id]
}

// ID returns the integer id of a node (-1 if unknown).
func (m *Model) ID(n *forest.Node) int {
	if n == nil {
		return -1
	}
	if p := n.Pos(); p < len(m.byID) && m.byID[p] == n {
		return p
	}
	return -1
}

// NodeCount returns the number of identified nodes.
func (m *Model) NodeCount() int { return len(m.byID) }

// TreeOf returns the id of the tree containing n ("" = main tree).
func (m *Model) TreeOf(n *forest.Node) string {
	// k counts the shared subtrees whose ids start at or before n's.
	k, _ := slices.BinarySearch(m.treeStart, m.ID(n)+1)
	if k == 0 {
		return ""
	}
	return m.Forest.SharedOrder[k-1]
}

// RefsTo returns the reference nodes pointing at a shared subtree root.
func (m *Model) RefsTo(subtree string) []*forest.Node { return m.refsTo[subtree] }

// IDsNamed returns, in id order, the ids of the nodes whose primary id (the
// leading component of the UNG id) or whose name is key. The slice is
// capped at its length; the caller must not modify it.
func (m *Model) IDsNamed(key string) []int32 {
	m.nameOnce.Do(m.indexNames)
	x := &m.names
	k := x.slots[m.nameSlot(key)] - 1
	if k < 0 {
		return nil
	}
	return x.ids[x.start[k]:x.start[k+1]:x.start[k+1]]
}

// nameSlot returns the table slot of key: the one holding its group, or
// the empty one its group would take.
func (m *Model) nameSlot(key string) int {
	x := &m.names
	mask := uint64(len(x.slots) - 1)
	for h := maphash.String(nameSeed, key) & mask; ; h = (h + 1) & mask {
		k := x.slots[h] - 1
		if k < 0 || m.groupKey(x.key[k]) == key {
			return int(h)
		}
	}
}

// groupKey returns the key a nameIndex.key entry names.
func (m *Model) groupKey(v int32) string {
	n := m.byID[v>>1]
	if v&1 == 1 {
		return n.Name
	}
	p, _, _ := uia.SplitControlID(n.ID)
	return p
}

// indexNames builds the name index. A node is listed under its primary id,
// and under its name too when that differs. The entries are counted
// first, so the table and a buffer of group keys are sized once; then
// each entry finds or opens its group, the keys are copied out at their
// length, and the groups are laid out side by side, their ids placed in
// entry order, which is id order.
func (m *Model) indexNames() {
	entries := len(m.byID)
	for _, n := range m.byID {
		if p, _, _ := uia.SplitControlID(n.ID); n.Name != p {
			entries++
		}
	}
	size := 2
	for 3*size < 4*entries {
		size <<= 1
	}
	x := &m.names
	x.slots = make([]int32, size)
	x.key = make([]int32, 0, entries)
	type entry struct{ node, group int32 }
	list := make([]entry, 0, entries)
	add := func(node int32, key string, byName int32) {
		h := m.nameSlot(key)
		k := x.slots[h] - 1
		if k < 0 {
			k = int32(len(x.key))
			x.slots[h] = k + 1
			x.key = append(x.key, node<<1|byName)
		}
		list = append(list, entry{node, k})
	}
	for i, n := range m.byID {
		p, _, _ := uia.SplitControlID(n.ID)
		add(int32(i), p, 0)
		if n.Name != p {
			add(int32(i), n.Name, 1)
		}
	}
	keys := x.key
	x.key = slices.Clone(keys) // the index stays resident: no spare capacity
	// start[k+1] counts group k, and the running sum makes start[k] the
	// place of its first id.
	x.start = make([]int32, len(x.key)+1)
	for _, e := range list {
		x.start[e.group+1]++
	}
	for k := range len(x.key) {
		x.start[k+1] += x.start[k]
	}
	next := keys // group k's next free place
	copy(next, x.start)
	x.ids = make([]int32, len(list))
	for _, e := range list {
		x.ids[next[e.group]] = e.node
		next[e.group]++
	}
}

// FindLeafByName returns the first leaf node whose name matches (after
// normalization), preferring main-tree nodes. Tooling and tests use it;
// the executor resolves ids, never names.
func (m *Model) FindLeafByName(name string) *forest.Node {
	want := strutil.Normalize(name)
	var hit *forest.Node
	trees := append([]*forest.Node{m.Forest.Main}, m.sharedInOrder()...)
	for _, tree := range trees {
		tree.Walk(func(n *forest.Node) bool {
			if hit != nil {
				return false
			}
			if n.IsLeaf() && strutil.Normalize(n.Name) == want {
				hit = n
				return false
			}
			return true
		})
		if hit != nil {
			return hit
		}
	}
	return hit
}

func (m *Model) sharedInOrder() []*forest.Node {
	var out []*forest.Node
	for _, id := range m.Forest.SharedOrder {
		out = append(out, m.Forest.Shared[id])
	}
	return out
}

// Options tunes serialization.
type Options struct {
	// MaxDepth limits the serialized depth below each tree root (0 =
	// unlimited). The paper's core topology uses six levels.
	MaxDepth int
	// IncludeLargeEnums keeps large enumerations (font lists, symbol
	// grids); core topologies drop them.
	IncludeLargeEnums bool
	// Exclude prunes nodes by UNG id — the manually identified exclusions
	// of paper §3.3.
	Exclude map[string]bool
	// DescLimit truncates attached descriptions to this many runes
	// (default 60).
	DescLimit int
}

// CoreOptions returns the default core-topology settings. The paper prunes
// to roughly six navigation levels; this UNG additionally materializes the
// container levels between navigation hops (tab bar, tab panel, group,
// popup body), so the equivalent structural depth here is nine.
func CoreOptions() Options { return Options{MaxDepth: 9, DescLimit: 60} }

// FullOptions serializes everything.
func FullOptions() Options { return Options{IncludeLargeEnums: true, DescLimit: 60} }

func (o *Options) fill() {
	if o.DescLimit == 0 {
		o.DescLimit = 60
	}
}

// Serialize renders the forest: the main tree, then each shared subtree
// introduced by a "shared_subtree" header that doubles as the entry map
// (reference nodes carry ref=<id> markers pointing at subtree roots).
func (m *Model) Serialize(opt Options) string { return string(m.appendForest(nil, opt)) }

// appendForest appends the Serialize rendering to b.
func (m *Model) appendForest(b []byte, opt Options) []byte {
	opt.fill()
	b = append(b, "main-tree:\n"...)
	b = m.appendNode(b, m.Forest.Main, 0, opt)
	b = append(b, '\n')
	for _, id := range m.Forest.SharedOrder {
		root := m.Forest.Shared[id]
		if !opt.IncludeLargeEnums && root.LargeEnum {
			continue
		}
		b = append(b, "shared-subtree-"...)
		b = strconv.AppendInt(b, int64(m.ID(root)), 10)
		b = append(b, ":\n"...)
		b = m.appendNode(b, root, 0, opt)
		b = append(b, '\n')
	}
	return b
}

// SerializeSubtree renders one node's full substructure (no depth limit) —
// the targeted branch mode of further_query. Large enumerations are
// included: if the caller asks for the branch, it wants the contents.
func (m *Model) SerializeSubtree(id int) (string, error) {
	n := m.Node(id)
	if n == nil {
		return "", fmt.Errorf("describe: unknown node id %d", id)
	}
	opt := FullOptions()
	opt.fill()
	return string(m.appendNode(nil, n, 0, opt)), nil
}

// appendNode renders n in the compact format. depth counts levels below the
// tree root; children beyond MaxDepth, large enumerations, and excluded
// nodes are replaced by a single elision marker "+".
func (m *Model) appendNode(b []byte, n *forest.Node, depth int, opt Options) []byte {
	name := n.Name
	if name == "" {
		name = "[Unnamed]"
	}
	b = appendEscaped(b, name)
	b = append(b, '(')
	b = append(b, n.Type.String()...)
	b = append(b, ')')
	if d := m.descFor(n, opt); d != "" {
		b = append(b, '(')
		b = appendEscaped(b, d)
		b = append(b, ')')
	}
	if n.IsRef() {
		b = append(b, "(ref="...)
		b = strconv.AppendInt(b, int64(m.ID(m.Forest.Shared[n.RefTarget])), 10)
		b = append(b, ')')
	}
	b = append(b, '_')
	b = strconv.AppendInt(b, int64(m.ID(n)), 10)

	if len(n.Children) == 0 {
		return b
	}
	b = append(b, '[')
	visible, elided := 0, 0
	for _, c := range n.Children {
		if hidden(c, depth, opt) {
			elided++
			continue
		}
		if visible > 0 {
			b = append(b, ',')
		}
		visible++
		b = m.appendNode(b, c, depth+1, opt)
	}
	if elided > 0 {
		if visible > 0 {
			b = append(b, ',')
		}
		b = append(b, '+') // elision marker: further_query expands
		b = strconv.AppendInt(b, int64(elided), 10)
	}
	return append(b, ']')
}

// hidden reports whether child c of a node at depth is elided rather than
// rendered.
func hidden(c *forest.Node, depth int, opt Options) bool {
	return opt.Exclude != nil && opt.Exclude[c.ID] ||
		!opt.IncludeLargeEnums && c.LargeEnum ||
		opt.MaxDepth > 0 && depth+1 >= opt.MaxDepth
}

// descFor selects and truncates the description (paper §4.2): key-type
// controls and non-leaf navigation nodes always carry their descriptions;
// when several siblings share a name and at least one is a key type, all of
// them get described.
func (m *Model) descFor(n *forest.Node, opt Options) string {
	if n.Desc == "" {
		return ""
	}
	attach := n.Type.IsKeyType() || !n.IsLeaf()
	if !attach && n.Parent != nil {
		for _, sib := range n.Parent.Children {
			if sib != n && sib.Name == n.Name && sib.Type.IsKeyType() {
				attach = true
				break
			}
		}
	}
	if !attach {
		return ""
	}
	return strutil.TruncateChars(n.Desc, opt.DescLimit)
}

// structural lists the characters of the compact format; escapes maps each
// to the stand-in that keeps it unambiguous inside names and descriptions,
// and isStructural marks them by byte value.
const structural = "()[],_"

var (
	escapes      = [...]string{'(': "⟨", ')': "⟩", '[': "⟦", ']': "⟧", ',': ";", '_': "-"}
	isStructural = func() (t [256]bool) {
		for i := range len(structural) {
			t[structural[i]] = true
		}
		return t
	}()
)

// appendEscaped appends s with every structural character replaced. The
// structural characters are ASCII, so no byte of a multi-byte UTF-8
// sequence matches and the scan can go byte by byte.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if isStructural[s[i]] {
			b = append(b, s[start:i]...)
			b = append(b, escapes[s[i]]...)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// Tokens estimates the LLM token cost of a serialized topology (§5.4
// measures ≈15 tokens per control under o200k_base).
func Tokens(serialized string) int { return strutil.EstimateTokens(serialized) }

// ControlsIn counts the serialized controls (ids emitted) in a rendering —
// the denominator of the tokens-per-control metric.
func ControlsIn(serialized string) int {
	return strings.Count(serialized, "_") // ids are the only remaining underscores
}
