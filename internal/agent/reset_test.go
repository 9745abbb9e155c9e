package agent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/appkit"
	"repro/internal/llm"
	"repro/internal/osworld"
	"repro/internal/uia"
)

// resetSettings are the configurations of the grid's settings.
var resetSettings = func() []Config {
	var out []Config
	for _, s := range Settings() {
		out = append(out, Config{Interface: s.Interface, Profile: s.Profile})
	}
	return out
}()

// clumsy is a profile that slips often, so histories hold failed runs,
// misclicks, wrong menus left open and abandoned dialogs.
var clumsy = func() llm.Profile {
	p := llm.GPT5Mini
	p.Name, p.Semantic, p.Grounding, p.Composite, p.NavPlanning = "clumsy", 0.6, 0.5, 0.7, 0.9
	p.Detect, p.Recover = 0.3, 0.3
	return p
}()

// resetSession is one session of a pooled instance's history.
type resetSession struct {
	task osworld.Task
	cfg  Config
	seed int64
}

// historySession draws a session of one of tasks: a grid setting, run as
// is, with heavy staleness injection, under a small step cap, or by the
// clumsy profile.
func historySession(tasks []osworld.Task, pick func(int) int) resetSession {
	cfg := resetSettings[pick(len(resetSettings))]
	switch pick(4) {
	case 1:
		cfg.TopologyMissRate = 0.5
	case 2:
		cfg.StepCap = 2 + pick(6)
	case 3:
		cfg.Profile = clumsy
	}
	return resetSession{task: tasks[pick(len(tasks))], cfg: cfg, seed: int64(pick(1 << 30))}
}

// tasksByApp groups the grid's tasks by application.
func tasksByApp() map[string][]osworld.Task {
	out := make(map[string][]osworld.Task)
	for _, task := range osworld.All() {
		out[task.App] = append(out[task.App], task)
	}
	return out
}

// TestEnvResetProperty is the pool's contract (DESIGN.md §3.1): nothing
// that survives a reset may alter an outcome. For every task and setting,
// a seeded history of sessions of the same app's tasks — plain, heavily
// staleness-injected, step-capped and clumsy ones — runs on the one pooled
// instance, and then the task's session on it must match a fresh build's
// byte for byte, as must the desktop and every state path the app's verify
// conditions read. A second pass compares the complete UI surface, provider
// state included, after a history per task.
func TestEnvResetProperty(t *testing.T) {
	m := sharedModels(t)
	byApp := tasksByApp()
	rng := rand.New(rand.NewSource(29))
	histories := 0
	for _, app := range AppNames() {
		tasks := byApp[app]
		for _, task := range tasks {
			for _, cfg := range resetSettings {
				history := make([]resetSession, 1+rng.Intn(3))
				for i := range history {
					history[i] = historySession(tasks, rng.Intn)
				}
				checkReset(t, m, history, resetSession{task, cfg, rng.Int63()}, false)
				histories++
			}
		}
		for _, task := range tasks {
			history := []resetSession{historySession(tasks, rng.Intn), historySession(tasks, rng.Intn)}
			checkReset(t, m, history, resetSession{task, resetSettings[rng.Intn(len(resetSettings))], rng.Int63()}, true)
			histories++
		}
	}
	t.Logf("%d histories", histories)
}

// FuzzEnvReset drives the reset property from arbitrary bytes: the first
// picks the application, the rest a seeded history of its sessions and the
// session whose outcome, desktop, probes and surface are checked against a
// fresh build. Its seed corpus is in testdata/fuzz/FuzzEnvReset.
func FuzzEnvReset(f *testing.F) {
	m := sharedModels(f)
	byApp := tasksByApp()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		tasks := byApp[AppNames()[int(data[0])%len(AppNames())]]
		next := 1
		pick := func(n int) int {
			if next >= len(data) {
				return 0
			}
			v := int(data[next])
			next++
			return v % n
		}
		history := make([]resetSession, len(data)/4)
		for i := range history {
			history[i] = historySession(tasks, pick)
		}
		target := historySession(tasks, pick)
		target.cfg = resetSettings[pick(len(resetSettings))]
		checkReset(t, m, history, target, true)
	})
}

// checkReset runs history on the pool's instance of target's app, checks the
// instance out for target and compares it with a fresh build: desktop,
// verify-condition probes, the complete UI surface when surface is set, and
// target's outcome.
func checkReset(t testing.TB, m *Models, history []resetSession, target resetSession, surface bool) {
	t.Helper()
	var inst *osworld.Env
	for _, s := range history {
		env := s.task.Checkout()
		if inst != nil && env != inst {
			t.Fatalf("history session of %s checked out a second instance", s.task.ID)
		}
		inst = env
		runOn(env, m, s.task, s.cfg, rand.New(rand.NewSource(s.seed)))
		env.Release()
	}
	env := target.task.Checkout()
	defer env.Release()
	if inst != nil && env != inst {
		t.Fatalf("%s checked out a second instance", target.task.ID)
	}
	what := fmt.Sprintf("%s after %s", target.task.ID, describeHistory(history))

	fresh := target.task.Build()
	if got, want := deskState(env.App.Desk), deskState(fresh.App.Desk); got != want {
		t.Fatalf("%s: desktop %s, fresh build %s", what, got, want)
	}
	for _, path := range probePaths(target.task.App) {
		got, gerr := env.Probe(path)
		want, werr := fresh.Probe(path)
		if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: probe %q = %v (%v), fresh build %v (%v)", what, path, got, gerr, want, werr)
		}
	}
	if surface {
		env.App.MaterializeAll()
		fresh.App.MaterializeAll()
		if got, want := surfaceState(env.App), surfaceState(fresh.App); got != want {
			t.Fatalf("%s: surface differs from a fresh build's:\n%s", what, firstDiff(got, want))
		}
		fresh = target.task.Build()
	}

	got := runOn(env, m, target.task, target.cfg, rand.New(rand.NewSource(target.seed)))
	want := runOn(fresh, m, target.task, target.cfg, rand.New(rand.NewSource(target.seed)))
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("%s: outcome %s, fresh build %s", what, gb, wb)
	}
}

func describeHistory(h []resetSession) string {
	parts := make([]string, len(h))
	for i, s := range h {
		parts[i] = fmt.Sprintf("%s/%v/%s/cap%d/miss%.2f/seed%d", s.task.ID, s.cfg.Interface, s.cfg.Profile.Name, s.cfg.StepCap, s.cfg.TopologyMissRate, s.seed)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// deskState renders what a session leaves on the desktop outside the
// elements.
func deskState(d *uia.Desktop) string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock %v, %d snapshots, focus %v, windows", d.Clock().Now(), d.SnapshotCount(), d.Focus())
	for _, w := range d.Windows() {
		b.WriteString(" " + w.ControlID())
	}
	return b.String()
}

// probePaths lists every state path the verify conditions of app's tasks
// read.
func probePaths(app string) []string {
	var paths []string
	for _, task := range osworld.All() {
		if task.App != app {
			continue
		}
		task.Verify.Walk(func(c osworld.Cond) {
			if c.Path != "" && !slices.Contains(paths, c.Path) {
				paths = append(paths, c.Path)
			}
		})
	}
	return paths
}

// surfaceState renders every element of a's complete surface, one line
// each: the properties TestFullSurfaceGolden hashes plus on-screen status
// and the state every attached pattern provider reports.
func surfaceState(a *appkit.App) string {
	var b strings.Builder
	for _, root := range append([]*uia.Element{a.Win}, a.AllPopupWindows()...) {
		root.Walk(func(e *uia.Element) bool {
			fmt.Fprintf(&b, "%s %q %q %v %d vis=%v on=%v en=%v big=%v",
				e.ControlID(), e.Name(), e.Description(), e.Rect(), len(e.Children()),
				e.Visible(), e.OnScreen(), e.Enabled(), e.LargeEnum())
			for _, id := range e.PatternIDs() {
				fmt.Fprintf(&b, " %s=%s", id, providerState(e, id))
			}
			b.WriteByte('\n')
			return true
		})
	}
	return b.String()
}

func providerState(e *uia.Element, id uia.PatternID) string {
	switch p := e.Pattern(id).(type) {
	case uia.Toggler:
		return p.ToggleState(e).String()
	case uia.Valuer:
		return fmt.Sprintf("%q", p.Value(e))
	case uia.Scroller:
		h, v := p.ScrollPercent(e)
		return fmt.Sprintf("%g/%g", h, v)
	case uia.RangeValuer:
		return fmt.Sprint(p.RangeValue(e))
	case uia.ExpandCollapser:
		return p.ExpandState(e).String()
	case uia.SelectionItem:
		return fmt.Sprint(p.IsSelected(e))
	case uia.Texter:
		s, end, ok := p.Selection(e)
		return fmt.Sprintf("%q[%d-%d %v]", p.Text(e), s, end, ok)
	case uia.SelectionContainer:
		return fmt.Sprint(len(p.SelectedItems(e)))
	}
	return ""
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestPoolConcurrentSessions: sessions of one application running at once
// each get an instance of their own from the pool (the one idle instance,
// or a fresh build), and every outcome equals a fresh build's. Run under
// the race detector in CI.
func TestPoolConcurrentSessions(t *testing.T) {
	m := sharedModels(t)
	tasks := tasksByApp()["Word"]
	const workers, rounds = 4, 3
	type job struct {
		task osworld.Task
		cfg  Config
		seed int64
	}
	var jobs []job
	for r := 0; r < rounds; r++ {
		for i, task := range tasks {
			jobs = append(jobs, job{task, resetSettings[(i+r)%len(resetSettings)], int64(100*r + i)})
		}
	}
	want := make([]Outcome, len(jobs))
	for i, j := range jobs {
		want[i] = runOn(j.task.Build(), m, j.task, j.cfg, rand.New(rand.NewSource(j.seed)))
	}
	got := make([]Outcome, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				got[i] = Run(m, j.task, j.cfg, rand.New(rand.NewSource(j.seed)))
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range jobs {
		if got[i] != want[i] {
			t.Errorf("%s: pooled %+v, fresh %+v", jobs[i].task.ID, got[i], want[i])
		}
	}
}
