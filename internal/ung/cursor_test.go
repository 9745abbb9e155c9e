package ung

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/appkit"
)

// ctxFrame is one frame of a rip with the context it was dispatched in.
// An extra frame is one ripFrames made up rather than one the rip
// dispatched.
type ctxFrame struct {
	ctx   string
	f     Frame
	extra bool
}

// recordingExpander expands frames synchronously on one cursor and records
// them, and their expansions' costs, in dispatch order.
type recordingExpander struct {
	cur     *Cursor
	frames  []ctxFrame
	elapsed []time.Duration
}

func (r *recordingExpander) Expand(ctx string, f Frame) <-chan ExpandResult {
	exp := r.cur.Expand(ctx, f)
	r.frames = append(r.frames, ctxFrame{ctx: ctx, f: f})
	r.elapsed = append(r.elapsed, exp.Elapsed)
	ch := make(chan ExpandResult, 1)
	ch <- ExpandResult{Expansion: exp}
	return ch
}

func (r *recordingExpander) Close() ExpanderStats { return ExpanderStats{Workers: 1} }

// ripFrames returns every frame a rip of the application dispatches for
// expansion, in the context it was dispatched in, followed by frames whose
// click paths cannot be replayed — a path through an id no capture holds,
// and a path through a real control that is not on screen where the path
// reaches it — and by a share of the frames again in each registered
// context. A rip discovers every catalog control in the base context, so
// without the latter no frame would be expanded in any other.
func ripFrames(t testing.TB, factory func() *appkit.App) []ctxFrame {
	t.Helper()
	probe := factory()
	rec := &recordingExpander{cur: NewCursor(factory())}
	if _, _, err := RipDispatched(probe, Config{}, rec); err != nil {
		t.Fatal(err)
	}
	frames := rec.frames
	var more []ctxFrame
	for i, cf := range frames {
		if i%97 == 0 && len(cf.f.Path) > 0 {
			missing := append(append([]string(nil), cf.f.Path[:len(cf.f.Path)-1]...), "no such control")
			more = append(more, ctxFrame{cf.ctx, Frame{ID: cf.f.ID, Path: missing}, true})
			// The frame's control is on screen only once its path has been
			// replayed, so a path through it fails at its first step.
			early := append([]string{cf.f.ID}, cf.f.Path...)
			more = append(more, ctxFrame{cf.ctx, Frame{ID: cf.f.Path[0], Path: early}, true})
		}
		if i%7 == 0 {
			for _, c := range probe.Contexts() {
				more = append(more, ctxFrame{c.Name, cf.f, true})
			}
		}
	}
	return append(frames, more...)
}

var (
	catalogFramesOnce sync.Once
	catalogFrames     map[string][]ctxFrame
)

// catalogRipFrames returns ripFrames of every catalog application, computed
// once per test binary.
func catalogRipFrames(t testing.TB) map[string][]ctxFrame {
	catalogFramesOnce.Do(func() {
		catalogFrames = make(map[string][]ctxFrame)
		for _, app := range catalogFactories {
			catalogFrames[app.name] = ripFrames(t, app.new)
		}
	})
	return catalogFrames
}

// TestRipCursorShuffled expands every frame of each catalog application's
// rip, in every context, through one long-lived cursor in a seeded shuffled
// order, and requires each expansion to equal the same frame expanded by a
// fresh cursor on a fresh instance: which frames a cursor expanded before,
// and which checkpoints it kept, never shows in a result.
func TestRipCursorShuffled(t *testing.T) {
	all := catalogRipFrames(t)
	for _, app := range catalogFactories {
		t.Run(app.name, func(t *testing.T) {
			t.Parallel()
			var frames []ctxFrame
			for i, cf := range all[app.name] {
				// Race builds and -short check every tenth ripped frame.
				if cf.extra || i%10 == 0 || !(testing.Short() || raceEnabled) {
					frames = append(frames, cf)
				}
			}
			rng := rand.New(rand.NewSource(1))
			rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
			cur := NewCursor(app.new())
			var outcomes [3]int
			failedReplay := 0
			for _, cf := range frames {
				got := cur.Expand(cf.ctx, cf.f)
				want := NewCursor(app.new()).Expand(cf.ctx, cf.f)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("context %q frame %+v: the long-lived cursor's expansion differs from a fresh one:\n%+v\nvs\n%+v",
						cf.ctx, cf.f, got, want)
				}
				outcomes[got.Outcome]++
				if got.Outcome == ExpandSkipped && got.Clicks < len(cf.f.Path) {
					failedReplay++
				}
			}
			t.Logf("%d frames: %d ok, %d skipped (%d failed to replay), %d blocked",
				len(frames), outcomes[ExpandOK], outcomes[ExpandSkipped], failedReplay, outcomes[ExpandBlocked])
			if outcomes[ExpandOK] == 0 || failedReplay == 0 {
				t.Errorf("want expanded frames and frames that fail to replay")
			}
		})
	}
}

// FuzzRipCursor drives one long-lived cursor through a sequence of frames
// its input chooses, and requires every expansion to equal the same frame
// expanded by a fresh cursor on a fresh instance. The first byte picks the
// catalog application; each following triple of bytes picks a context and
// one of ripFrames, which include frames whose click paths fail to replay.
func FuzzRipCursor(f *testing.F) {
	all := catalogRipFrames(f)
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 0, 0, 1})
	f.Add([]byte{2, 0, 0, 9, 1, 0, 3, 0, 0, 9})
	f.Add([]byte{4, 0, 1, 7, 0, 0, 200, 0, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 97 {
			return
		}
		app := catalogFactories[int(data[0])%len(catalogFactories)]
		frames := all[app.name]
		contexts := ripContexts(app.new())
		cur := NewCursor(app.new())
		for i := 1; i+2 < len(data); i += 3 {
			ctx := contexts[int(data[i])%len(contexts)]
			fr := frames[(int(data[i+1])<<8|int(data[i+2]))%len(frames)].f
			got := cur.Expand(ctx, fr)
			if want := NewCursor(app.new()).Expand(ctx, fr); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s context %q frame %+v: the long-lived cursor's expansion differs from a fresh one:\n%+v\nvs\n%+v",
					app.name, ctx, fr, got, want)
			}
		}
	})
}
