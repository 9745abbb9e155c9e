package ung

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/uia"
)

func TestBinaryRoundTrip(t *testing.T) {
	g, _ := ripDemo(t)
	data, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g, back)
}

// goldenPath holds the checked-in EncodeBinary output of the demo
// application's graph. It pins the on-disk format: an unintentional
// encoding change breaks every snapshot already on disk (modelstore would
// silently re-rip), so a deliberate format change must bump BinaryVersion
// or modelstore.SnapshotVersion and regenerate this file
// (UPDATE_GOLDEN=1 go test ./internal/ung -run TestSnapshotGolden).
const goldenPath = "testdata/demo_snapshot.golden.ungb"

var updateGolden = os.Getenv("UPDATE_GOLDEN") != ""

// TestSnapshotGolden pins the binary snapshot both ways: encoding the ripped
// demo graph reproduces the committed bytes (and so their size, the
// modelstore's budget cost), and decoding the committed bytes yields a graph
// identical to the ripped one.
func TestSnapshotGolden(t *testing.T) {
	g, _ := ripDemo(t)
	data, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	if updateGolden {
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (set UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("snapshot encoding (%d B) drifted from the %d-byte golden file; if intentional, "+
			"bump the snapshot version and regenerate with UPDATE_GOLDEN=1", len(data), len(want))
	}
	back, err := DecodeBinary(want)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g, back)
}

// TestBinarySmallerThanJSON: the binary snapshot stays well under a plain
// JSON rendering of the same graph (every node, in discovery order, with
// its edge lists), the compactness the modelstore's byte budget relies on.
func TestBinarySmallerThanJSON(t *testing.T) {
	g, _ := ripDemo(t)
	jsonData, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	binData, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	if limit := len(jsonData) * 7 / 10; len(binData) > limit {
		t.Errorf("binary snapshot is %d bytes, want ≤ 70%% of the %d-byte JSON form (%d)",
			len(binData), len(jsonData), limit)
	}
}

// TestDecodeBinaryOwnsItsStrings: decoded strings share one copy of the
// payload, never the caller's buffer, so overwriting the input after a
// decode leaves the graph intact.
func TestDecodeBinaryOwnsItsStrings(t *testing.T) {
	g, _ := ripDemo(t)
	want, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte{}, want...)
	back, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	again, err := EncodeBinary(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Error("overwriting the input buffer changed the decoded graph")
	}
}

func TestBinaryDecodeFailureModes(t *testing.T) {
	g, _ := ripDemo(t)
	valid, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte("NOPE"), valid[4:]...)
		if _, err := DecodeBinary(bad); err == nil {
			t.Error("wrong magic accepted")
		}
	})
	t.Run("version skew", func(t *testing.T) {
		skewed := append([]byte(binaryMagic), binary.AppendUvarint(nil, BinaryVersion+1)...)
		skewed = append(skewed, valid[len(binaryMagic)+1:]...)
		_, err := DecodeBinary(skewed)
		if err == nil {
			t.Fatal("version skew accepted")
		}
		if want := "snapshot version"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("version-skew error %q does not name the version", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every proper prefix must be rejected: the length-prefixed layout
		// leaves no valid graph hiding inside a shorter buffer.
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeBinary(valid[:n]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", n, len(valid))
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		noisy := append(append([]byte{}, valid...), 0x00)
		_, err := DecodeBinary(noisy)
		if err == nil {
			t.Fatal("trailing garbage accepted")
		}
		if want := "trailing"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("trailing-garbage error %q does not say so", err)
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		// Flip an unknown flag bit in the root node's flags byte. The root
		// is the first node: magic, version, app, count, id, name, type,
		// desc, then flags.
		r := binReader{s: string(valid)}
		r.off = len(binaryMagic)
		for _, field := range []string{"version", "app", "count", "id", "name", "type", "desc"} {
			switch field {
			case "app", "id", "name", "desc":
				if _, err := r.str(field); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := r.uvarint(field); err != nil {
					t.Fatal(err)
				}
			}
		}
		bad := append([]byte{}, valid...)
		bad[r.off] |= 0x80
		if _, err := DecodeBinary(bad); err == nil {
			t.Error("unknown flag bit accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeBinary(nil); err == nil {
			t.Error("empty payload accepted")
		}
	})
	t.Run("duplicate node", func(t *testing.T) {
		// Two ids repeat; the error names the first repeat in node order,
		// as an id map filled in node order would.
		data := duplicateNodeSnapshot(t)
		_, err := DecodeBinary(data)
		if want := `ung: decode binary: duplicate node "a"`; err == nil || err.Error() != want {
			t.Errorf("DecodeBinary error %v, want %q", err, want)
		}
		if committedSeed(t, "seed_duplicate_node") != string(data) {
			t.Error("committed seed does not hold the duplicate-node snapshot")
		}
	})
}

// duplicateNodeSnapshot encodes a graph whose nodes 3 and 4 repeat the ids
// of nodes 1 and 2. AddNode never makes such a graph, so the ids are set by
// hand; EncodeBinary does not check them. It is committed as the
// FuzzSnapshotBinaryDecode seed seed_duplicate_node.
func duplicateNodeSnapshot(t *testing.T) []byte {
	t.Helper()
	g := NewGraph("Dup")
	for _, e := range [][2]string{{RootID, "a"}, {RootID, "b"}, {"a", "c"}, {"b", "d"}} {
		from := g.lookup(e[0])
		to, _ := g.AddNode(Reveal{ID: e[1], Name: e[1], Type: uia.ButtonControl}, "")
		g.AddEdge(from, to)
	}
	g.Nodes[3].ID, g.Nodes[4].ID = "a", "b"
	g.Seal()
	data, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// committedSeed returns the one []byte value of the committed
// FuzzSnapshotBinaryDecode seed file name.
func committedSeed(t *testing.T, name string) string {
	t.Helper()
	seed, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzSnapshotBinaryDecode", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(string(seed), "go test fuzz v1\n[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")\n")
	if !ok || !ok2 {
		t.Fatalf("seed file is not one []byte value: %q", seed)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("seed file %s: %v", name, err)
	}
	return s
}

// FuzzSnapshotBinaryDecode hardens the snapshot codec against corrupt
// on-disk snapshots (the modelstore path that falls back to a fresh rip):
// DecodeBinary must never panic on corrupt input, and anything it accepts
// must be structurally valid, survive a round trip unchanged, and have the
// EncodedSize of its encoding. The
// committed corpus under testdata/fuzz/FuzzSnapshotBinaryDecode is replayed
// by plain `go test`.
func FuzzSnapshotBinaryDecode(f *testing.F) {
	app := demoApp()
	g, _, err := Rip(app, Config{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeBinary(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                                       // truncated mid-node
	f.Add(append(append([]byte{}, valid...), 0xff))                                                   // trailing garbage
	f.Add([]byte(binaryMagic))                                                                        // magic only
	f.Add([]byte("UNGB\x02"))                                                                         // version skew
	f.Add(append([]byte("UNGB\x01\x00"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)) // absurd node count
	f.Add([]byte(`{"app":"x","nodes":[]}`))                                                           // JSON fed to the binary decoder

	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeBinary(data)
		if err != nil {
			return // rejected: exactly what corrupt snapshots should get
		}
		if err := decoded.Validate(); err != nil {
			t.Fatalf("DecodeBinary accepted an invalid graph: %v", err)
		}
		again, err := EncodeBinary(decoded)
		if err != nil {
			t.Fatalf("re-encode of accepted graph failed: %v", err)
		}
		if n, err := EncodedSize(decoded); err != nil || n != len(again) {
			t.Fatalf("EncodedSize = %d, %v; EncodeBinary wrote %d bytes", n, err, len(again))
		}
		back, err := DecodeBinary(again)
		if err != nil {
			t.Fatalf("decode of re-encoded graph failed: %v", err)
		}
		assertGraphsIdentical(t, decoded, back)
	})
}

// brokenGraphs returns hand-built graphs that break each check DecodeBinary
// runs on its edge indexes rather than through Graph.Validate: a missing
// reverse entry, unreachable nodes (one of them on a cycle), and both at
// once. EncodeBinary does not validate, so each encodes to a snapshot that
// is well formed byte for byte and wrong as a graph. Each is committed,
// encoded, as a FuzzSnapshotBinaryDecode seed under the same name.
func brokenGraphs() []struct {
	name string
	g    *Graph
} {
	node := func(g *Graph, id string) int32 {
		i, _ := g.AddNode(Reveal{ID: id, Name: id, Type: uia.ButtonControl}, "")
		return i
	}
	build := func(edges ...[2]string) *Graph {
		g := NewGraph("Broken")
		for _, e := range edges {
			g.AddEdge(node(g, e[0]), node(g, e[1]))
		}
		g.Seal()
		return g
	}
	dropIn := func(g *Graph, to, from string) {
		list := 2*g.lookup(to) + 1
		at := int(g.off[list]) + slices.Index(g.row(list), g.lookup(from))
		g.edges = slices.Delete(g.edges, at, at+1)
		for k := list + 1; k < int32(len(g.off)); k++ {
			g.off[k]--
		}
	}
	missingReverse := build([2]string{RootID, "a"}, [2]string{"a", "b"}, [2]string{RootID, "c"}, [2]string{"a", "c"})
	dropIn(missingReverse, "c", "a")
	unreachable := build([2]string{RootID, "a"}, [2]string{"d", "e"}, [2]string{"e", "d"}, [2]string{"f", "a"})
	both := build([2]string{RootID, "a"}, [2]string{"a", "b"}, [2]string{"d", "b"})
	dropIn(both, "b", "a")
	return []struct {
		name string
		g    *Graph
	}{
		{"seed_missing_reverse", missingReverse},
		{"seed_unreachable", unreachable},
		{"seed_missing_reverse_and_unreachable", both},
	}
}

// TestDecodeChecksMatchValidate: DecodeBinary runs Graph.Validate's checks
// on its own edge indexes, so a snapshot of a broken graph must fail with
// exactly the error Validate gives that graph, and the committed seeds must
// be those snapshots.
func TestDecodeChecksMatchValidate(t *testing.T) {
	for _, c := range brokenGraphs() {
		t.Run(c.name, func(t *testing.T) {
			verr := c.g.Validate()
			if verr == nil {
				t.Fatal("Validate accepted a broken graph")
			}
			data, err := EncodeBinary(c.g)
			if err != nil {
				t.Fatal(err)
			}
			_, derr := DecodeBinary(data)
			if want := "ung: decode binary: " + verr.Error(); derr == nil || derr.Error() != want {
				t.Errorf("DecodeBinary error %v, want %q", derr, want)
			}
			if committedSeed(t, c.name) != string(data) {
				t.Error("committed seed does not hold this graph's snapshot")
			}
		})
	}
}

// TestUvarintMatchesBinary: the string reader's varint loop accepts
// exactly what binary.Uvarint accepts, with the same value and length, and
// fails on truncation and on overflow past 64 bits alike.
func TestUvarintMatchesBinary(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x00},
		{0x7f},
		{0x80},
		{0x80, 0x01},
		{0xff, 0xff, 0xff},
		binary.AppendUvarint(nil, 1<<63),
		binary.AppendUvarint(nil, ^uint64(0)),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, // past 64 bits
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
	}
	for _, c := range cases {
		want, n := binary.Uvarint(c)
		r := binReader{s: string(c)}
		got, err := r.uvarint("field")
		switch {
		case n <= 0 && (err == nil || err.Error() != "ung: decode binary: truncated field"):
			t.Errorf("% x: uvarint = %d, %v; want the truncation error", c, got, err)
		case n > 0 && (err != nil || got != want || r.off != n):
			t.Errorf("% x: uvarint = %d, %v at %d; want %d at %d", c, got, err, r.off, want, n)
		}
	}
}

// TestEncodedSizeMatchesEncodeBinary: EncodedSize is the length of
// EncodeBinary's payload on every catalog graph, and fails as it does on a
// negative control type.
func TestEncodedSizeMatchesEncodeBinary(t *testing.T) {
	for _, app := range catalogFactories {
		g, _, err := Rip(app.new(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeBinary(g)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := EncodedSize(g); err != nil || n != len(data) {
			t.Errorf("%s: EncodedSize = %d, %v; EncodeBinary wrote %d bytes", app.name, n, err, len(data))
		}
	}
	g := NewGraph("Neg")
	g.Seal()
	g.Nodes[0].Type = -1
	_, encErr := EncodeBinary(g)
	_, sizeErr := EncodedSize(g)
	if encErr == nil || sizeErr == nil || encErr.Error() != sizeErr.Error() {
		t.Errorf("negative type: EncodedSize error %v, EncodeBinary error %v", sizeErr, encErr)
	}
}
