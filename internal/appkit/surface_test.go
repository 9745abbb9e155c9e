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
	"Word":       {3853, "8d6e7f3f663fd79eaeb9169f16ad5815a75fac7ff9119d2ed94ab59f64af5c08"},
	"Excel":      {3885, "35a3302443375365c0fd20316e54f33c03571f59bae59b498caf07a9b9c70001"},
	"PowerPoint": {3525, "59f9c06e1a4918e6a55b22983caa8d31a968222129d841acbbe32c5e3351c214"},
	"Settings":   {573, "31ddb1b3315e58a7378fabcafc72dde0752e99b8fa8b325bad2519b93b7e12ca"},
	"Files":      {328, "437d4f4156ca47884c4ea01128107ff611cc618300375b9ad4563100ad67dfe7"},
}

// TestFullSurfaceGolden: deferring enumerations changes nothing once they
// are built — every element's ControlID, name, description, rectangle,
// visibility, enabled and large-enumeration flags, patterns and child count
// match the eager tree, in the same order. A full rip hands its instance
// back in the state it was passed: its cursor's rewind puts back every
// click, so the ripped instance, materialized, matches the eager tree too.
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
	r := e.Rect()
	var buf [8]byte
	for _, v := range []int{r.X, r.Y, r.W, r.H, len(e.Children())} {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
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
