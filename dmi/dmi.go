// Package dmi is the public API of the DMI reproduction: the Declarative
// Model Interface from "From Imperative to Declarative: Towards
// LLM-friendly OS Interfaces for Boosted Computer-Use Agents" (EuroSys '26).
//
// The workflow mirrors the paper's two phases:
//
//	offline            online
//	─────────────      ──────────────────────────────
//	Rip(app)       →   NewSession(app, model)
//	Transform(g)   →   session.Visit / Declare / GetTexts …
//	NewModel(f)
//
// A quick start against the bundled PowerPoint simulator:
//
//	model, _ := dmi.Model(dmi.NewPowerPoint(12).App) // offline (throwaway instance)
//	app := dmi.NewPowerPoint(12)                     // fresh online instance
//	s := dmi.NewSession(app.App, model, dmi.ExecOptions{})
//	blue := model.FindLeafByName("Blue")
//	s.Visit([]dmi.Command{dmi.Access(model.ID(blue))})
//
// Everything re-exported here is implemented in the internal packages; see
// DESIGN.md for the system inventory.
package dmi

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/modelstore"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/taskpack"
	"repro/internal/uia"
	"repro/internal/ung"
)

// Accessibility substrate --------------------------------------------------

// Element is one control in an accessibility tree.
type Element = uia.Element

// Desktop owns the window stack, input dispatch, and the simulated clock.
type Desktop = uia.Desktop

// App is a simulated ribbon application built with the construction kit.
type App = appkit.App

// ControlType and the pattern vocabulary.
type ControlType = uia.ControlType

// Commonly used control types (the full 41-type vocabulary lives in the
// substrate).
const (
	ButtonControl    = uia.ButtonControl
	DocumentControl  = uia.DocumentControl
	DataItemControl  = uia.DataItemControl
	ListItemControl  = uia.ListItemControl
	ScrollBarControl = uia.ScrollBarControl
	SpinnerControl   = uia.SpinnerControl
)

// NoScroll marks a scroll axis that cannot scroll.
const NoScroll = uia.NoScroll

// The bundled case-study applications ---------------------------------------

// WordApp is the simulated word processor.
type WordApp = word.App

// ExcelApp is the simulated spreadsheet.
type ExcelApp = excel.App

// PowerPointApp is the simulated presentation editor.
type PowerPointApp = slides.App

// NewWord builds a fresh Word simulator (optional initial paragraphs).
func NewWord(paras ...string) *WordApp { return word.New(paras...) }

// NewExcel builds a fresh Excel simulator (optional initial rows).
func NewExcel(rows ...[]string) *ExcelApp { return excel.New(rows...) }

// NewPowerPoint builds a fresh PowerPoint simulator with n slides.
func NewPowerPoint(n int) *PowerPointApp { return slides.New(n) }

// Offline phase ----------------------------------------------------------------

// Graph is a UI Navigation Graph.
type Graph = ung.Graph

// RipConfig tunes GUI ripping.
type RipConfig = ung.Config

// RipStats reports offline modeling cost.
type RipStats = ung.Stats

// Rip builds the UNG of an application by DFS differential capture. It
// models app in the state it is passed, so pass a fresh instance, and hands
// its UI back in that state.
func Rip(app *App, cfg RipConfig) (*Graph, RipStats, error) { return ung.Rip(app, cfg) }

// Forest is the path-unambiguous topology (main tree + shared subtrees).
type Forest = forest.Forest

// ForestNode is one position in the forest. It points at the graph node it
// was built from and reads ID, Name, Type and Desc through it, so the graph
// a forest was transformed from must not grow afterwards.
type ForestNode = forest.Node

// TransformOptions tunes the graph→forest transformation.
type TransformOptions = forest.Options

// TransformStats reports what the transformation did (including the naive
// full-clone size of Figure 4).
type TransformStats = forest.Stats

// Transform decycles the graph and resolves merge nodes by cost-based
// selective externalization.
func Transform(g *Graph, opt TransformOptions) (*Forest, TransformStats, error) {
	return forest.Transform(g, opt)
}

// TopologyModel binds a forest to its integer control identifiers and
// renders the context-efficient descriptions.
type TopologyModel = describe.Model

// DescribeOptions tunes serialization.
type DescribeOptions = describe.Options

// CoreOptions returns the default core-topology settings (depth-limited,
// large enumerations pruned).
func CoreOptions() DescribeOptions { return describe.CoreOptions() }

// FullOptions serializes the complete forest.
func FullOptions() DescribeOptions { return describe.FullOptions() }

// NewModel assigns identifiers over a forest.
func NewModel(f *Forest) *TopologyModel { return describe.NewModel(f) }

// ModelStore is the concurrency-safe cache of offline builds: it memoizes
// the rip→transform→identify pipeline with singleflight semantics and, when
// persistent, binary snapshots (.ungb files) of each graph and its model,
// which later runs read back instead of ripping and transforming again.
type ModelStore = modelstore.Store

// ModelOptions configures one offline build in a store.
type ModelOptions = modelstore.Options

// ModelBuild carries a build's provenance (cache hit, snapshot reuse, rip
// and transform statistics).
type ModelBuild = modelstore.Build

// ModelStoreStats counts a store's traffic (hits, misses, snapshot loads,
// evictions) and its warm working set (resident bytes and models).
type ModelStoreStats = modelstore.Stats

// NewModelStore creates an in-memory model store.
func NewModelStore() *ModelStore { return modelstore.New() }

// NewPersistentModelStore creates a model store that saves and reuses binary
// snapshots (.ungb files) of each graph and its model under dir.
func NewPersistentModelStore(dir string) *ModelStore { return modelstore.NewPersistent(dir) }

// NewBudgetedModelStore creates a serving-grade model store that holds at
// most budget bytes of encoded graph snapshots warm (0 = unlimited),
// evicting the least-recently-used models beyond that. With a non-empty
// dir, snapshot files survive eviction, so re-accessing an evicted model
// reads it back from disk with zero rip clicks.
func NewBudgetedModelStore(dir string, budget int64) *ModelStore {
	return modelstore.NewBudgeted(dir, budget)
}

// defaultStore backs Model: one offline build per distinct
// application structure per process, shared by every session.
var defaultStore = modelstore.New()

// structuralKey fingerprints an application instance by name plus the
// synthesized identifiers and names of its complete UI surface: every
// element of the main window and of every popup template, visible or not.
// Hidden elements matter — two decks can share an identical initial screen
// (the same thumbnail viewport) yet differ inside a dialog that enumerates
// per-slide entries — so the key must cover everything the ripper could
// ever reveal. Instances with equal keys rip into identical graphs and
// share one cached model; a false split (equal graphs, different keys)
// merely costs an extra build, never a wrong model. Deferred gallery and
// combo-box items are built first, so the key does not depend on which
// lists the instance has opened.
func structuralKey(app *App) string {
	h := fnv.New64a()
	hash := func(root *uia.Element) {
		root.Walk(func(e *uia.Element) bool {
			io.WriteString(h, e.ControlID())
			io.WriteString(h, "\x00")
			io.WriteString(h, e.Name())
			io.WriteString(h, "\x01")
			return true
		})
	}
	app.MaterializeAll()
	hash(app.Win)
	for _, w := range app.AllPopupWindows() {
		hash(w)
	}
	return fmt.Sprintf("%s#%016x", app.Name, h.Sum64())
}

// Model runs the complete offline phase for an application instance: rip,
// transform, identify. Like Rip, it models app in the state it is passed,
// so pass a fresh instance. Results are memoized in a process-wide store
// keyed by the instance's structural fingerprint: the first call per
// application rips the instance and hands its UI back in that state; later
// calls for a structurally identical application return the cached model
// without touching the instance at all.
func Model(app *App) (*TopologyModel, error) {
	b, err := defaultStore.Build(structuralKey(app), func() *appkit.App { return app }, modelstore.Options{})
	return b.Model, err
}

// EstimateTokens estimates the LLM token cost of a serialized topology.
func EstimateTokens(serialized string) int { return describe.Tokens(serialized) }

// Online phase -----------------------------------------------------------------

// Session is the DMI runtime bound to one application and its model.
type Session = core.Session

// ExecOptions tunes the executor (retries, fuzzy matching, ablations).
type ExecOptions = core.Options

// Command is one structured visit command.
type Command = core.Command

// VisitResult is the structured feedback of one visit call.
type VisitResult = core.VisitResult

// StepError is the structured error fed back for replanning.
type StepError = core.StepError

// LabelMap labels the current screen for the interaction interfaces.
type LabelMap = core.LabelMap

// Declaration is one state declaration (Session.Declare): an op, its
// target labels and the op's parameters.
type Declaration = core.Declaration

// The state ops a Declaration may name (paper Table 2).
const (
	OpScrollbar        = core.OpScrollbar
	OpSelectLines      = core.OpSelectLines
	OpSelectParagraphs = core.OpSelectParagraphs
	OpSelectControls   = core.OpSelectControls
	OpSetRangeValue    = core.OpSetRangeValue
	OpSetToggleState   = core.OpSetToggleState
	OpSetExpanded      = core.OpSetExpanded
)

// NewSession binds the DMI runtime to an application and its offline model.
func NewSession(app *App, model *TopologyModel, opt ExecOptions) *Session {
	return core.NewSession(app, model, opt)
}

// Distributed serving ----------------------------------------------------------

// Dispatcher abstracts where evaluation grid cells execute: in-process over
// warm models, or sharded across dmi-serve replicas. Implementations must
// return exactly Cell.Runs outcomes in run order — the idempotent cell
// contract that makes re-dispatch after a replica failure safe.
type Dispatcher = bench.Dispatcher

// GridCell is one serializable (setting, task, runs) job unit of the
// evaluation grid — the body of one dmi-serve POST /v1/cells.
type GridCell = bench.Cell

// AgentOutcome is the result of one task run — what a Dispatcher returns
// per repetition.
type AgentOutcome = agent.Outcome

// BenchReport is the aggregated evaluation output (Table 3, Figures 5/6,
// one-shot and token statistics).
type BenchReport = bench.Report

// RemoteDispatcher shards cells across dmi-serve replicas with per-replica
// in-flight caps, failure detection, re-dispatch of failed cells,
// half-open recovery probing (a down-marked replica returns to rotation
// once its /v1/healthz answers ready again), and elastic membership
// (AddReplica/RemoveReplica adjust the fleet mid-run). Call Close when
// retiring a dispatcher to stop its background probers.
type RemoteDispatcher = bench.RemoteDispatcher

// RemoteOptions tunes a RemoteDispatcher (per-replica in-flight cap, HTTP
// client, pack handshake, recovery-probe cadence, event logging). Every
// cell travels as its own one-cell envelope; Batch coalesces rip frames
// for the distributed rip only, and NewRemoteDispatcher rejects Batch > 1.
type RemoteOptions = bench.RemoteOptions

// NewRemoteDispatcher validates the replica base URLs and builds a
// dispatcher over them.
func NewRemoteDispatcher(replicas []string, opt RemoteOptions) (*RemoteDispatcher, error) {
	return bench.NewRemoteDispatcher(replicas, opt)
}

// EvalGridCells enumerates the full evaluation grid in the canonical grid
// order every dispatcher-backed run aggregates in.
func EvalGridCells(runs int) []GridCell { return bench.GridCellsIn(taskpack.Builtin(), runs) }

// RunDistributed executes the full evaluation grid through a dispatcher,
// aggregating outcomes in grid order — the report is byte-identical to the
// in-process evaluation whenever the dispatcher honors the cell contract.
// concurrency > 0 caps the cells in flight. concurrency <= 0 dispatches as
// many as the dispatcher can hold: a RemoteDispatcher is paced by its live
// fleet capacity, so concurrency follows replica failures, recoveries,
// joins, and leaves; any other dispatcher gets GOMAXPROCS. This is the
// programmatic form of the dmi-coord CLI, which passes 0.
func RunDistributed(ctx context.Context, d Dispatcher, runs, concurrency int) (*BenchReport, error) {
	return bench.RunDispatchedIn(ctx, taskpack.Builtin(), d, runs, concurrency)
}

// Access builds a control-access command.
func Access(id int) Command { return core.Access(id) }

// AccessRef builds a control-access command for a shared-subtree target.
func AccessRef(id int, entryRefs ...int) Command { return core.AccessRef(id, entryRefs...) }

// Input builds an access-and-input-text command.
func Input(id int, text string) Command { return core.Input(id, text) }

// Shortcut builds a shortcut-key command.
func Shortcut(key string) Command { return core.Shortcut(key) }

// FurtherQuery builds a topology-expansion command (-1 = whole forest).
func FurtherQuery(ids ...int) Command { return core.FurtherQuery(ids...) }

// ParseCommands decodes a JSON array of visit commands (raw LLM output).
func ParseCommands(raw []byte) ([]Command, error) { return core.ParseCommands(raw) }
