// Package agent implements the evaluated computer-use agents: a UFO-2-like
// GUI-only baseline (multi-agent HostAgent/AppAgent workflow with action
// sequences over visible controls), its ablation with the navigation forest
// as prompt knowledge, and the DMI-integrated agent that plans globally
// over the declarative interface (paper §5.1).
//
// The LLM is simulated (see internal/llm): the ground-truth plan is
// stochastically corrupted through the profile's error channels, and all
// resulting actions are executed for real against the simulated
// application; success is verified from application state.
package agent

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/strutil"

	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
)

// Interface selects the evaluated configuration.
type Interface int

// Evaluated interfaces (Table 3 rows).
const (
	GUIOnly   Interface = iota // UFO2-as baseline
	GUIForest                  // ablation: baseline + navigation forest as knowledge
	GUIDMI                     // baseline + DMI declarative interface
)

// String names the configuration as in Table 3.
func (i Interface) String() string {
	switch i {
	case GUIOnly:
		return "GUI-only"
	case GUIForest:
		return "GUI-only+Nav.forest"
	default:
		return "GUI+DMI"
	}
}

// Config is one evaluated agent configuration.
type Config struct {
	Interface Interface
	Profile   llm.Profile
	// StepCap bounds LLM calls per task (paper: 30).
	StepCap int
	// TopologyMissRate injects offline-model staleness (paper §6,
	// (In)accurate navigation topology). Zero means the default, 0.06; a
	// negative rate disables injection.
	TopologyMissRate float64
}

// Setting is one evaluated cell of the evaluation grid: a labelled
// interface and profile, a row of the paper's Table 3.
type Setting struct {
	Label     string
	Interface Interface
	Profile   llm.Profile
}

// Settings returns the Table 3 rows in paper order.
func Settings() []Setting {
	return []Setting{
		{"GUI-only / GPT-5 / Medium", GUIOnly, llm.GPT5Medium},
		{"GUI-only+forest / GPT-5 / Medium", GUIForest, llm.GPT5Medium},
		{"GUI+DMI / GPT-5 / Medium", GUIDMI, llm.GPT5Medium},
		{"GUI-only / GPT-5 / Minimal", GUIOnly, llm.GPT5Minimal},
		{"GUI+DMI / GPT-5 / Minimal", GUIDMI, llm.GPT5Minimal},
		{"GUI-only / 5-mini / Medium", GUIOnly, llm.GPT5Mini},
		{"GUI-only+forest / 5-mini / Medium", GUIForest, llm.GPT5Mini},
		{"GUI+DMI / 5-mini / Medium", GUIDMI, llm.GPT5Mini},
	}
}

func (c *Config) fill() {
	if c.StepCap == 0 {
		c.StepCap = 30
	}
	if c.TopologyMissRate == 0 {
		c.TopologyMissRate = 0.06
	}
}

// Outcome is the result of one task run.
type Outcome struct {
	Task    string
	Success bool
	// Steps counts LLM calls including the fixed 3-call framework
	// overhead; CoreSteps excludes it (Figure 5b).
	Steps     int
	CoreSteps int
	OneShot   bool // task intent completed in a single core call
	Time      time.Duration
	Prompt    int    // prompt tokens, summed over calls
	Completed int    // completion tokens
	Failure   string // failure channel tag ("" on success)
}

// Models carries the offline artifacts shared by every run: one modeled
// forest per application (built from throwaway instances, as the paper's
// offline phase) plus their core serialization's token cost.
//
// Models is read-only once BuildModelsIn or ModelsFor returns. This is the
// contract the concurrent online-serving layer (bench.RunDispatchedIn,
// dmi-serve) relies on: any number of sessions may plan over the same warm
// describe.Model simultaneously, so neither the maps nor the models they
// hold may be mutated. describe.Model exposes no mutating methods after
// construction; its name index is filled once, on first use, under a
// sync.Once. The bench equivalence test exercises concurrent runs under
// the race detector.
type Models struct {
	ByApp      map[string]*describe.Model
	CoreTokens map[string]int
}

// catalog lists the evaluated applications in AppNames order with their
// throwaway-instance builders: the paper's three Office case studies plus
// the Settings and Files applications of the extended catalog. Adding an
// app here is all the online stack needs — the store, the benchmark grid,
// and the CLIs enumerate it.
var catalog = [...]struct {
	name string
	new  func() *appkit.App
}{
	{"Word", func() *appkit.App { return word.New().App }},
	{"Excel", func() *appkit.App { return excel.New().App }},
	{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
	{"Settings", func() *appkit.App { return settings.New().App }},
	{"Files", func() *appkit.App { return filemgr.New().App }},
}

// Factories returns the catalog's throwaway-instance builders by
// application name.
func Factories() map[string]func() *appkit.App {
	m := make(map[string]func() *appkit.App, len(catalog))
	for _, c := range catalog {
		m[c.name] = c.new
	}
	return m
}

// factory returns one application's builder without building the
// Factories map, which ModelsFor would otherwise do per session.
func factory(app string) (func() *appkit.App, bool) {
	for _, c := range catalog {
		if c.name == app {
			return c.new, true
		}
	}
	return nil, false
}

// AppNames returns the catalog's application names in stable order — every
// catalog consumer that needs deterministic ordering (CLIs, report tables)
// iterates this slice instead of the Factories map.
func AppNames() []string {
	names := make([]string, len(catalog))
	for i, c := range catalog {
		names[i] = c.name
	}
	return names
}

// BuildModelsIn runs the offline phase for the application catalog through
// store. Each app is ripped sequentially on one instance; workers is only
// the width of the virtual schedule its simulated modeling clock is
// computed on (≤ 0 means 1, see ung.RipParallel), which no report prints,
// so the evaluation is unaffected. The caller's store
// decides what is reused: a budgeted store's eviction policy governs which
// catalog models stay resident, a persistent one restarts from snapshots.
// Apps are built in AppNames order, which makes prewarm eviction order
// deterministic.
func BuildModelsIn(store *modelstore.Store, workers int) (*Models, error) {
	m := &Models{
		ByApp:      make(map[string]*describe.Model),
		CoreTokens: make(map[string]int),
	}
	for _, app := range AppNames() {
		one, err := ModelsFor(store, app, workers)
		if err != nil {
			return nil, err
		}
		m.ByApp[app] = one.ByApp[app]
		m.CoreTokens[app] = one.CoreTokens[app]
	}
	return m, nil
}

// ModelsFor returns a single-application Models view fetched through store:
// the app's model plus the token accounting BuildModelsIn would compute for
// it, so a Run over this view is byte-identical to one over the full
// catalog view. The serving daemon calls this per session, which is what
// lets the store's budget and LRU state decide whether the session start is
// a warm hit, a zero-rip snapshot reload, or a fresh build.
func ModelsFor(store *modelstore.Store, app string, workers int) (*Models, error) {
	build, ok := factory(app)
	if !ok {
		return nil, fmt.Errorf("agent: unknown application %q", app)
	}
	b, err := store.Build(app, build, modelstore.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	// The token accounting is cached with the store entry, so a warm
	// session start costs a map lookup — no re-serialization.
	return &Models{
		ByApp:      map[string]*describe.Model{app: b.Model},
		CoreTokens: map[string]int{app: b.CoreTokens},
	}, nil
}

// Run executes one task under one configuration with a deterministic RNG.
//
// Run is safe for concurrent use with distinct rng values. Each call checks
// its own environment (application instance, desktop, simulated clock) out
// of the process's instance pool, which hands an instance to one session
// at a time and resets it between sessions so that it runs exactly like a
// fresh task.Build() (osworld.Task.Checkout); the shared models are
// read-only (see Models). Task plans and the offline forest are only ever
// read; the only state a run mutates lives in its own env.
func Run(models *Models, task osworld.Task, cfg Config, rng *rand.Rand) Outcome {
	env := task.Checkout()
	out := runOn(env, models, task, cfg, rng)
	// A session that panics never returns its instance to the pool.
	env.Release()
	return out
}

// runOn runs task on env, a live environment for it.
func runOn(env *osworld.Env, models *Models, task osworld.Task, cfg Config, rng *rand.Rand) Outcome {
	cfg.fill()
	model := models.ByApp[task.App]
	d := &driver{
		cfg:    cfg,
		p:      cfg.Profile,
		rng:    rng,
		env:    env,
		task:   task,
		model:  model,
		models: models,
		sess:   core.NewSession(env.App, model, core.Options{}),
	}
	return d.run()
}

// driver executes one task run.
type driver struct {
	cfg    Config
	p      llm.Profile
	rng    *rand.Rand
	env    *osworld.Env
	task   osworld.Task
	model  *describe.Model
	models *Models
	sess   *core.Session

	steps      int
	coreSteps  int
	prompt     int
	completion int
	latency    time.Duration

	gui guiCall

	events []event
	capped bool
}

// event records an error occurrence and whether the agent recovered.
type event struct {
	channel   string
	recovered bool
}

func (d *driver) fail(channel string) { d.events = append(d.events, event{channel: channel}) }
func (d *driver) recovered(channel string) {
	d.events = append(d.events, event{channel: channel, recovered: true})
}

// call accounts one LLM round trip.
func (d *driver) call(promptTokens int, core bool) {
	d.steps++
	if core {
		d.coreSteps++
	}
	d.prompt += promptTokens
	d.completion += d.p.CompletionTokens
	d.latency += d.p.CallLatency(promptTokens)
}

func (d *driver) overCap() bool {
	if d.steps >= d.cfg.StepCap {
		d.capped = true
		return true
	}
	return false
}

// chance draws a Bernoulli with probability p (clamped).
func (d *driver) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return d.rng.Float64() < p
}

func (d *driver) run() Outcome {
	start := d.env.App.Desk.Clock().Now()

	// UFO-2 workflow overhead (§5.3): (1) HostAgent decomposes the task
	// and activates the application.
	d.call(d.framePrompt(), false)

	// (2..k) AppAgent executes the delegated subtask.
	aborted := false
	switch d.cfg.Interface {
	case GUIDMI:
		aborted = d.runDMI()
	default:
		aborted = d.runGUI()
	}

	// (k+1) AppAgent verifies and hands off; (k+2) HostAgent verifies.
	if !d.capped {
		d.call(d.framePrompt(), false)
		d.call(d.framePrompt(), false)
	}

	success := !aborted && !d.capped && d.env.Verify()
	out := Outcome{
		Task:      d.task.ID,
		Success:   success,
		Steps:     d.steps,
		CoreSteps: d.coreSteps,
		OneShot:   d.coreSteps <= 1,
		Time:      d.latency + (d.env.App.Desk.Clock().Now() - start),
		Prompt:    d.prompt,
		Completed: d.completion,
	}
	if !success {
		out.Failure = d.classify()
	}
	return out
}

// classify picks the failure channel: the first unrecovered error event,
// the step cap, or a residual execution tag.
func (d *driver) classify() string {
	for _, ev := range d.events {
		if !ev.recovered {
			return ev.channel
		}
	}
	if d.capped {
		return osworld.FailStepCap
	}
	return osworld.FailExecution
}

// framePrompt is the token cost of a framework call (task description,
// workflow state, screen labels). GUI-mode framework calls also carry a
// screenshot; with DMI the framework plans over structured observations.
func (d *driver) framePrompt() int {
	screen := d.sess.CaptureLabels()
	tokens := 900 + screen.Len()*8 + strutil.EstimateTokens(d.task.Description)
	if d.cfg.Interface != GUIDMI {
		tokens += 2500
	}
	return tokens
}

// intent is what the planner actually decided for one plan step after the
// semantic error channels have spoken.
type intent struct {
	target  osworld.Target
	skip    bool   // step silently dropped (e.g. forgetting Apply to All)
	sibling bool   // divert to a sibling distractor after resolution
	tag     string // failure channel if the decision was wrong
}

// intend applies the semantic error channels to one plan step.
//
// Semantic channels operate identically across interfaces, except that
// imperative execution splits attention between policy and mechanism,
// raising semantic slips (§5.6) — guiAttn carries that multiplier.
func (d *driver) intend(step osworld.PlanStep, guiAttn float64) intent {
	// Specific trap (control semantics, subtle semantics, ...).
	if step.TrapKind != "" && d.chance(d.p.ControlSem*step.TrapWeight*guiAttn) {
		if step.TrapAlt == nil {
			return intent{skip: true, tag: step.TrapKind}
		}
		return intent{target: *step.TrapAlt, tag: step.TrapKind}
	}
	// Generic semantic misreading scaled by task and step ambiguity.
	pSem := d.p.Semantic * (0.6 + d.task.Ambiguity + step.Ambiguity) * guiAttn
	if d.chance(pSem) {
		if step.TrapAlt != nil {
			return intent{target: *step.TrapAlt, tag: osworld.FailAmbiguousTask}
		}
		return intent{target: step.Target, sibling: true, tag: osworld.FailAmbiguousTask}
	}
	return intent{target: step.Target}
}
