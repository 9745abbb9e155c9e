package core

import (
	"strings"
	"time"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/strutil"
	"repro/internal/uia"
)

// Options tunes the DMI executor. The Disable* switches exist for the
// ablation benchmarks of the robustness mechanisms.
type Options struct {
	// Retries is how many extra observation rounds the navigator spends
	// waiting for slowly-loading controls before reporting failure
	// (default 3). Shortcut-key commands are never retried (§3.4).
	Retries int

	DisableLeafFilter bool // ablation: trust LLM navigation output verbatim
	DisableFuzzy      bool // ablation: exact identifier matching only
	DisableRetry      bool // ablation: fail on first missing control
}

func (o *Options) fill() {
	if o.Retries == 0 {
		o.Retries = 3
	}
}

const (
	// fuzzyThreshold is the minimum similarity for the fuzzy control
	// matcher.
	fuzzyThreshold = 0.62
	// maxWindowCloses bounds how many windows navigation may close while
	// searching for the target's window.
	maxWindowCloses = 8
)

// Session binds the DMI runtime to one application and its offline model.
//
// A Session is single-goroutine: it mutates its application and its Actions
// counter freely. The Model, however, is routinely shared between many
// concurrent sessions of the same application (the warm-model serving
// tier), so the session treats it as strictly read-only — every Model
// access below is a lookup on structures frozen at describe.NewModel time.
type Session struct {
	App   *appkit.App
	Model *describe.Model
	Opt   Options

	// Actions counts primitive UI operations performed through the
	// session (clicks, keystrokes, pattern calls) for the evaluation.
	Actions int

	// Navigation scratch, reused across observation rounds. Safe as a
	// plain field because a Session is single-goroutine (see above); only
	// the Model is shared.
	scratchAnc []string
}

// NewSession creates a DMI session.
func NewSession(app *appkit.App, model *describe.Model, opt Options) *Session {
	opt.fill()
	return &Session{App: app, Model: model, Opt: opt}
}

// FullTopology returns the complete forest rendering, which the model
// renders on its first request and memoizes.
func (s *Session) FullTopology() string {
	return s.Model.Full()
}

// matchScore rates how well a live element matches a topology step,
// combining control type, name similarity, and ancestor overlap — the fuzzy
// matcher of §3.4.
func matchScore(step *forest.Node, elPrimary, elName string, elAncestors []string) float64 {
	primary, _, ancPath := uia.SplitControlID(step.ID)
	nameSim := strutil.Similarity(primary, elPrimary)
	// The name channel only speaks when both sides have a name: two
	// unnamed controls are not thereby similar, and letting
	// Similarity("", "") = 1 override a low identifier similarity would
	// fuzzy-match any unnamed control to any unnamed step.
	if strutil.Normalize(step.Name) != "" && strutil.Normalize(elName) != "" {
		if s := strutil.Similarity(step.Name, elName); s > nameSim {
			nameSim = s
		}
	}
	overlap := ancestorOverlap(ancPath, elAncestors)
	return 0.7*nameSim + 0.3*overlap
}

// ancestorOverlap scores ancestor agreement between a step's raw "a/b/c"
// ancestor path and a live element's ancestor names:
// |path ∩ b| / max(|path|, |b|). It works on the undivided path so the
// scoring loop never materializes the step's components.
func ancestorOverlap(path string, b []string) float64 {
	segs := 0
	if path != "" {
		segs = 1 + strings.Count(path, "/")
	}
	hit := 0
	for _, y := range b {
		if pathHasSegment(path, y) {
			hit++
		}
	}
	max := segs
	if len(b) > max {
		max = len(b)
	}
	if max == 0 {
		return 1
	}
	return float64(hit) / float64(max)
}

// pathHasSegment reports whether y equals one "/"-separated segment of path.
func pathHasSegment(path, y string) bool {
	for path != "" {
		seg := path
		if i := strings.IndexByte(path, '/'); i >= 0 {
			seg, path = path[:i], path[i+1:]
		} else {
			path = ""
		}
		if seg == y {
			return true
		}
	}
	return false
}

// uiCost advances the simulated clock for bookkeeping of non-click
// operations performed by state/observation interfaces.
const uiCost = 50 * time.Millisecond
