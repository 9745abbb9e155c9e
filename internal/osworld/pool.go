package osworld

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/uia"
)

// Instance pool -------------------------------------------------------------------
//
// Building a task's application is most of what a session costs, yet a
// task's starting state differs from its app's factory state only by its
// setup ops. So a process keeps at most one idle instance per application.
// Checkout hands it out with the task's setup applied (or builds fresh on a
// miss), and Release returns it to the state it was checked out in:
//
//   - While checked out, the instance's undo log records every element and
//     provider mutation (uia's undo seam), the pending picks of appkit's
//     choice lists and every Go-side field a handler writes outside the
//     document model; application handlers keep no other state.
//   - Release rewinds the log and restores the desktop's clock, snapshot
//     count, focus and window stack. That is the only way back; no app
//     hook runs first.
//   - The next Checkout runs the app's reset hook with recording on: it puts
//     the document model where a fresh build with the next task's setup
//     would put it, and any UI change it makes rewinds like a session's.
//
// The contract (DESIGN.md §3.1): nothing that survives a Release may alter
// an outcome. The reset property in internal/agent checks it against fresh
// builds over every task and setting.
//
// One idle instance per app is a constant: the five hold 1.2 MB of heap as
// built and 3.6 MB with every deferred list built; one per task would hold
// several times that. It pays off for sessions of one app that follow each
// other rather than overlap, which is most serving traffic (DESIGN.md §3.3
// gives the measured shares). A session that starts while another of its
// app holds the instance builds a recording one of its own; the first one
// released into an empty slot is kept.
var pool = struct {
	sync.Mutex
	idle map[string]*Env
}{idle: make(map[string]*Env)}

var poolReused, poolBuilt atomic.Int64

// PoolStats reports how many environments Checkout has handed out from the
// pool and how many it has built, since the process started.
func PoolStats() (reused, built int64) { return poolReused.Load(), poolBuilt.Load() }

// Checkout returns a live environment for t: the pool's idle instance of
// t's application reset to t's setup, or a fresh build. It records its
// mutations until Release hands it back; call Release exactly once when the
// session is over. Like Build, it panics on a setup the application cannot
// apply, which validated tasks never have.
func (t Task) Checkout() *Env {
	pool.Lock()
	env := pool.idle[t.App]
	delete(pool.idle, t.App)
	pool.Unlock()

	if env != nil {
		env.undo.SetRecording(true)
		if err := env.reset(t.Setup); err != nil {
			panic(fmt.Sprintf("osworld: reset %s: %v", t.ID, err))
		}
		poolReused.Add(1)
	} else {
		env = t.Build()
		env.undo = uia.NewUndoLog()
		env.undo.Attach(env.App.Win)
		env.undo.Attach(env.App.AllPopupWindows()...)
		env.App.Desk.SaveState(&env.desk)
		env.undo.SetRecording(true)
		poolBuilt.Add(1)
	}
	env.bind(t)
	return env
}

// Release ends the session on an environment from Checkout: it returns the
// instance to the state it was checked out in (see the pool comment) and
// to the pool. When the pool already holds an idle instance of the same
// application, the instance is dropped as it is, without the reset. An
// environment from Build is left alone.
func (e *Env) Release() {
	if e.undo == nil || idle(e.Kind) {
		return
	}
	e.undo.Rewind()
	e.App.Desk.RestoreState(e.desk)

	pool.Lock()
	if pool.idle[e.Kind] == nil {
		pool.idle[e.Kind] = e
	}
	pool.Unlock()
}

// idle reports whether the pool holds an idle instance of app.
func idle(app string) bool {
	pool.Lock()
	defer pool.Unlock()
	return pool.idle[app] != nil
}
