// Package appkit is a construction kit for simulated GUI applications on top
// of the uia accessibility substrate. It provides the structural vocabulary
// of ribbon applications — tab bars, groups, dropdown popups, modal dialogs,
// galleries, color pickers, wizards — together with the window management
// conventions (Esc closes popups, menus auto-close on leaf activation, OK
// applies and closes) that both the GUI ripper and the DMI executor rely on.
//
// The three Office simulators (internal/office/...) and the catalog
// applications (internal/apps/...) are built entirely from this kit; the
// "ribbon" vocabulary generalizes to any tabbed, dialog-heavy desktop
// application.
package appkit

import (
	"fmt"
	"slices"

	"repro/internal/uia"
)

// Context is an application state under which additional, otherwise hidden
// controls become visible — e.g. PowerPoint's "Picture Format" tab appearing
// only while an image is selected (paper §4.1, context-aware exploration).
type Context struct {
	Name  string
	Enter func(a *App)
}

// App is a simulated ribbon application: one main window on a desktop, a tab
// bar, a popup stack, and application-defined contexts and blocklists.
type App struct {
	Name string
	Desk *uia.Desktop
	Win  *uia.Element

	tabBar     *uia.Element
	body       *uia.Element // container for tab panels and document area
	tabs       []*tab
	defaultTab string

	popups         []*Popup // currently open, outermost first
	popupTemplates []*Popup // every popup ever created (for layout and tooling)

	// binding carries the semantic target of the currently open shared
	// popup chain (e.g. which property a color picker modifies). This is
	// what makes control function path-dependent (paper Challenge #1).
	binding any

	contexts  []Context
	active    []string        // active context names, in activation order
	blocklist map[string]bool // synthesized control IDs the ripper must not click

	commits []commitHandler

	// deferred maps a gallery or combo-box list to its still unbuilt items;
	// pending lists every deferred enumeration in creation order (lazy.go).
	deferred map[*uia.Element]*lazyItems
	pending  []*lazyItems
}

type tab struct {
	item       *uia.Element
	panel      *uia.Element
	contextual string // non-empty: visible only while this context is active
}

// New creates an application with an empty main window attached to a fresh
// desktop.
func New(name string) *App {
	d := uia.NewDesktop()
	win := uia.NewElement("win"+name, name, uia.WindowControl)
	win.SetRect(uia.Rect{X: 0, Y: 0, W: 1600, H: 900})
	d.OpenWindow(win)

	a := &App{
		Name:      name,
		Desk:      d,
		Win:       win,
		blocklist: make(map[string]bool),
	}

	a.tabBar = uia.NewElement("ribbonTabs", "Ribbon Tabs", uia.TabControl)
	a.body = uia.NewElement("ribbonBody", "Ribbon", uia.PaneControl)
	win.AddChild(a.tabBar)
	win.AddChild(a.body)

	d.RegisterKey("ESC", func(*uia.Desktop) error {
		a.CloseTopPopup(false)
		return nil
	})
	d.RegisterKey("ENTER", func(dd *uia.Desktop) error {
		return a.commitFocused()
	})
	return a
}

// Body returns the main window's content container as a buildable panel.
//
//dmi:testonly tests in appkit and the office apps build fixture controls into the body
func (a *App) Body() Panel { return Panel{App: a, El: a.body} }

// Window returns the main window as a buildable panel (for status bars,
// scrollbars and other chrome outside the ribbon body).
func (a *App) Window() Panel { return Panel{App: a, El: a.Win} }

// Tab adds a ribbon tab and returns its content panel. The first tab added
// becomes the default active tab.
func (a *App) Tab(autoID, name string) Panel {
	return a.addTab(autoID, name, "")
}

// ContextTab adds a contextual ribbon tab visible only while the named
// context is active.
func (a *App) ContextTab(autoID, name, context string) Panel {
	return a.addTab(autoID, name, context)
}

func (a *App) addTab(autoID, name, context string) Panel {
	item := uia.NewElement(autoID, name, uia.TabItemControl)
	item.SetDescription(name + " ribbon tab")
	panel := uia.NewElement(autoID+"Panel", name+" Tab Content", uia.PaneControl)
	panel.SetVisible(false)
	t := &tab{item: item, panel: panel, contextual: context}
	a.tabs = append(a.tabs, t)
	a.tabBar.AddChild(item)
	a.body.AddChild(panel)

	item.OnClick(func(*uia.Element) { a.activateTab(t) })
	if context != "" {
		item.SetVisible(false)
	} else if a.defaultTab == "" {
		a.defaultTab = name
		a.activateTab(t)
	}
	return Panel{App: a, El: panel}
}

func (a *App) activateTab(t *tab) {
	for _, other := range a.tabs {
		other.panel.SetVisible(other == t)
	}
}

// ActiveTabInfo returns the active ribbon tab's item and content panel, or
// nil, nil when no tab is active. The GUI ripper uses this for root-node
// initialization: otherwise unscoped controls on the initial screen are
// associated with the active tab (paper §4.1).
func (a *App) ActiveTabInfo() (item, panel *uia.Element) {
	for _, t := range a.tabs {
		if t.panel.Visible() {
			return t.item, t.panel
		}
	}
	return nil, nil
}

// ActivateTabByName switches the ribbon to the named tab; it is a no-op for
// unknown names.
//
//dmi:testonly app tests across the catalog switch tabs by name
func (a *App) ActivateTabByName(name string) {
	for _, t := range a.tabs {
		if t.item.Name() == name {
			a.activateTab(t)
			return
		}
	}
}

// Binding returns the semantic target bound to the innermost open popup.
func (a *App) Binding() any { return a.binding }

// Contexts -------------------------------------------------------------------

// RegisterContext declares an application context (see Context).
func (a *App) RegisterContext(c Context) { a.contexts = append(a.contexts, c) }

// Contexts returns the registered contexts.
func (a *App) Contexts() []Context { return a.contexts }

// EnterContext activates the named context: its Enter hook runs and
// contextual tabs bound to it become visible.
func (a *App) EnterContext(name string) error {
	for _, c := range a.contexts {
		if c.Name != name {
			continue
		}
		if c.Enter != nil {
			c.Enter(a)
		}
		if !slices.Contains(a.active, name) {
			a.setActive(append(a.active, name))
		}
		for _, t := range a.tabs {
			if t.contextual == name {
				t.item.SetVisible(true)
			}
		}
		return nil
	}
	return fmt.Errorf("appkit: unknown context %q", name)
}

// ContextActive reports whether the named context is active.
func (a *App) ContextActive(name string) bool { return slices.Contains(a.active, name) }

// setActive makes names the active contexts through the undo seam, clipped
// like the popup stack (setPopups) so the log's copy is never overwritten.
func (a *App) setActive(names []string) { uia.Store(a.Win, &a.active, slices.Clip(names)) }

// Blocklist ------------------------------------------------------------------

// Block adds synthesized control IDs to the access blocklist consulted by
// the GUI ripper (paper §4.1): controls that would leave the application or
// enter states that Esc/Close cannot exit.
func (a *App) Block(controlIDs ...string) {
	for _, id := range controlIDs {
		a.blocklist[id] = true
	}
}

// Blocked reports whether the element is on the access blocklist.
func (a *App) Blocked(e *uia.Element) bool { return a.blocklist[e.ControlID()] }

// BlocklistSize returns the number of blocklisted controls, a measure of the
// manual effort in the offline phase.
func (a *App) BlocklistSize() int { return len(a.blocklist) }

// Edit commit ----------------------------------------------------------------

// commit handlers are attached via Panel.CommitEdit; pressing ENTER with the
// edit focused runs the handler with the edit's current value. This models
// Office controls like Excel's Name Box where ENTER commits the input (the
// paper's "Rich control descriptions" lesson, §5.7).
type commitHandler struct {
	el *uia.Element
	fn func(a *App, value string)
}

func (a *App) registerCommit(el *uia.Element, fn func(a *App, value string)) {
	a.commits = append(a.commits, commitHandler{el, fn})
}

func (a *App) commitFocused() error {
	f := a.Desk.Focus()
	if f == nil {
		return nil
	}
	for _, h := range a.commits {
		if h.el == f {
			v, ok := f.Pattern(uia.ValuePattern).(uia.Valuer)
			if !ok {
				return nil
			}
			h.fn(a, v.Value(f))
			return nil
		}
	}
	return nil
}
