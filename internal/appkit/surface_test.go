package appkit_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
	"repro/internal/ung"
)

// catalogApps builds the five evaluated applications, in catalog order.
var catalogApps = []struct {
	name  string
	build func() *appkit.App
}{
	{"Word", func() *appkit.App { return word.New().App }},
	{"Excel", func() *appkit.App { return excel.New().App }},
	{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
	{"Settings", func() *appkit.App { return settings.New().App }},
	{"Files", func() *appkit.App { return filemgr.New().App }},
}

// surfaceGolden pins, per catalog app, the element count and a digest of
// the complete UI surface — the main window plus every popup template —
// as an eager build produced it, before gallery and combo-box items were
// deferred. A materialized lazy build must reproduce it exactly.
var surfaceGolden = map[string]struct {
	elements int
	sha256   string
}{
	"Word":       {3853, "61e82700bf489c622aa099109d5cec390ddca28c9727fb8e834071726f9abb0f"},
	"Excel":      {3885, "8132993007f877a113a2d0aea4314535eb4c0e562dcbbad44d6c5ef756ac8ba5"},
	"PowerPoint": {3525, "3eaed2ff20493d5cd8b30ff3159688d366dbff69f4f202479aad447e3ccab39b"},
	"Settings":   {573, "e1ee6d58e13c03e05e9366c26ce093c29ec4d78582bb3afd72abfb524555a8f2"},
	"Files":      {328, "d3a81d1efda8290320885fd76e211b11541ebe28537525dddefb3de607f19f00"},
}

// TestFullSurfaceGolden: deferring enumerations changes nothing once they
// are built — every element's ControlID, name, description, visibility,
// enabled and large-enumeration flags, patterns and child count match the
// eager tree, in the same order. A full rip hands its instance back in the
// state it was passed: its cursor's rewind puts back every click, so the
// ripped instance, materialized, matches the eager tree too. Rectangles
// are not hashed: no app lays its controls out.
func TestFullSurfaceGolden(t *testing.T) {
	for _, app := range catalogApps {
		t.Run(app.name, func(t *testing.T) {
			want := surfaceGolden[app.name]
			fresh := app.build()
			ripped := app.build()
			if _, _, err := ung.Rip(ripped, ung.Config{}); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				pass string
				a    *appkit.App
			}{{"fresh", fresh}, {"after a rip", ripped}} {
				c.a.MaterializeAll()
				if n, sum := surfaceDigest(c.a); n != want.elements || sum != want.sha256 {
					t.Errorf("%s: surface = %d elements, digest %s; want %d, %s", c.pass, n, sum, want.elements, want.sha256)
				}
			}
		})
	}
}

// surfaceDigest walks a.Win and then every popup window in AllPopupWindows
// order, hashing each element's observable properties.
func surfaceDigest(a *appkit.App) (int, string) {
	h := sha256.New()
	n := 0
	for _, root := range append([]*uia.Element{a.Win}, a.AllPopupWindows()...) {
		root.Walk(func(e *uia.Element) bool {
			n++
			hashElement(h, e)
			return true
		})
	}
	return n, hex.EncodeToString(h.Sum(nil))
}

func hashElement(h hash.Hash, e *uia.Element) {
	for _, s := range []string{e.ControlID(), e.Name(), e.Description()} {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(e.Children())))
	h.Write(buf[:])
	for _, f := range []bool{e.Visible(), e.Enabled(), e.LargeEnum()} {
		if f {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, id := range e.PatternIDs() {
		io.WriteString(h, id.String())
		h.Write([]byte{0})
	}
	h.Write([]byte{0xff})
}
