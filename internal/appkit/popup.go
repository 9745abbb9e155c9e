package appkit

import (
	"slices"

	"repro/internal/uia"
)

// PopupKind distinguishes transient menus (auto-close when a leaf item is
// activated) from modal dialogs (closed explicitly via OK/Cancel/Close).
type PopupKind int

// Popup kinds.
const (
	MenuPopup PopupKind = iota
	DialogPopup
)

// Popup is a reusable popup window: a dropdown menu, a gallery flyout, or a
// modal dialog. A single Popup value can be opened from many different
// controls; because its internal structure is identical regardless of the
// opener, its controls become merge nodes in the UI Navigation Graph — the
// path-ambiguity phenomenon at the heart of the paper's Challenge #1.
type Popup struct {
	App  *App
	Kind PopupKind
	Win  *uia.Element // root of the popup tree (a window on the desktop)
	Body *uia.Element

	// OnOpen runs after the popup is pushed, with the opener's binding.
	OnOpen func(a *App, binding any)
	// OnClose runs when the popup is popped; accepted reports whether it
	// was closed by an accepting control (OK) rather than dismissed.
	OnClose func(a *App, accepted bool)

	items *lazyItems // a gallery's deferred items, built on first Open
}

// NewMenu creates a reusable menu/flyout popup. Its body is a Menu control;
// items added to it auto-close the whole popup chain when activated.
func (a *App) NewMenu(autoID, name string) *Popup {
	win := uia.NewElement(autoID, name, uia.PaneControl)
	win.SetRect(uia.Rect{X: 500, Y: 200, W: 360, H: 480})
	body := uia.NewElement(autoID+"Body", name, uia.MenuControl)
	win.AddChild(body)
	p := &Popup{App: a, Kind: MenuPopup, Win: win, Body: body}
	a.popupTemplates = append(a.popupTemplates, p)
	return p
}

// NewDialog creates a reusable modal dialog popup with a title bar and a
// Close button. Use AddOKCancel to attach the accept/dismiss pair.
func (a *App) NewDialog(autoID, name string) *Popup {
	win := uia.NewElement(autoID, name, uia.WindowControl)
	win.SetRect(uia.Rect{X: 450, Y: 150, W: 560, H: 560})
	title := uia.NewElement(autoID+"Title", name, uia.TitleBarControl)
	closeBtn := uia.NewElement(autoID+"Close", "Close", uia.ButtonControl)
	closeBtn.SetDescription("Close the " + name + " dialog")
	win.AddChild(title)
	title.AddChild(closeBtn)
	body := uia.NewElement(autoID+"Body", name, uia.PaneControl)
	win.AddChild(body)

	p := &Popup{App: a, Kind: DialogPopup, Win: win, Body: body}
	closeBtn.OnClick(func(*uia.Element) { a.closePopup(p, false) })
	a.popupTemplates = append(a.popupTemplates, p)
	return p
}

// Panel returns the popup body as a buildable panel.
func (p *Popup) Panel() Panel { return Panel{App: p.App, El: p.Body, popup: p} }

// AddOKCancel appends an OK and a Cancel button to a dialog. OK runs apply
// (which may be nil) and closes with accepted=true; Cancel dismisses.
func (p *Popup) AddOKCancel(apply func(a *App)) (ok, cancel *uia.Element) {
	ok = uia.NewElement(p.Win.AutomationID()+"OK", "OK", uia.ButtonControl)
	ok.SetDescription("Apply and close")
	cancel = uia.NewElement(p.Win.AutomationID()+"Cancel", "Cancel", uia.ButtonControl)
	cancel.SetDescription("Close without applying")
	p.Body.AddChild(ok)
	p.Body.AddChild(cancel)
	ok.OnClick(func(*uia.Element) {
		if apply != nil {
			apply(p.App)
		}
		p.App.closePopup(p, true)
	})
	cancel.OnClick(func(*uia.Element) { p.App.closePopup(p, false) })
	return ok, cancel
}

// Open pushes the popup onto the desktop with the given semantic binding,
// building a gallery's deferred items first. Opening a popup that is already
// open is a no-op (re-binding still occurs).
func (p *Popup) Open(binding any) {
	a := p.App
	uia.Store(a.Win, &a.binding, binding)
	a.materialize(p.items)
	if !a.Desk.IsOpen(p.Win) {
		a.Desk.OpenWindow(p.Win)
		a.setPopups(append(a.popups, p))
	}
	if p.OnOpen != nil {
		p.OnOpen(a, binding)
	}
}

// IsOpen reports whether the popup is currently on the desktop.
//
//dmi:testonly appkit tests assert a popup's open state
func (p *Popup) IsOpen() bool { return p.App.Desk.IsOpen(p.Win) }

// CloseTopPopup closes the innermost popup. accepted marks an accepting
// close (OK) as opposed to a dismissal (Esc/Cancel).
func (a *App) CloseTopPopup(accepted bool) {
	if len(a.popups) == 0 {
		return
	}
	a.closePopup(a.popups[len(a.popups)-1], accepted)
}

// CloseAllPopups dismisses the entire popup chain, innermost first.
//
//dmi:testonly dmi, appkit and slides tests reset the popup chain
func (a *App) CloseAllPopups() {
	for len(a.popups) > 0 {
		a.CloseTopPopup(false)
	}
}

// OpenPopups returns the number of popups currently open.
//
//dmi:testonly appkit and core tests count open popups
func (a *App) OpenPopups() int { return len(a.popups) }

// PopupTemplates returns every popup the application has created, open or
// not, in creation order.
func (a *App) PopupTemplates() []*Popup { return a.popupTemplates }

// AllPopupWindows returns the root window element of every popup template
// the application has created, whether or not it is currently open. Tooling
// (control counting, offline modeling statistics) uses this to enumerate the
// complete UI surface.
func (a *App) AllPopupWindows() []*uia.Element {
	ps := a.allPopups()
	out := make([]*uia.Element, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.Win)
	}
	return out
}

func (a *App) allPopups() []*Popup {
	seen := make(map[*Popup]bool)
	var out []*Popup
	var add func(p *Popup)
	add = func(p *Popup) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
	}
	for _, p := range a.popups {
		add(p)
	}
	for _, p := range a.popupTemplates {
		add(p)
	}
	return out
}

func (a *App) closePopup(p *Popup, accepted bool) {
	for i := len(a.popups) - 1; i >= 0; i-- {
		if a.popups[i] != p {
			continue
		}
		// Close this popup and everything above it (inner chains die with
		// their parent). The stack is popped before OnClose hooks fire so
		// hooks observe a consistent stack and may close further popups.
		closed := a.popups[i:]
		a.setPopups(a.popups[:i])
		for j := len(closed) - 1; j >= 0; j-- {
			inner := closed[j]
			a.Desk.CloseWindow(inner.Win)
			if inner.OnClose != nil {
				inner.OnClose(a, accepted && j == 0)
			}
		}
		if len(a.popups) == 0 {
			uia.Store(a.Win, &a.binding, nil)
		}
		return
	}
}

// CloseMenuChain closes the consecutive run of menu popups at the top of the
// popup stack, leaving any dialog beneath them (e.g. the Format Background
// pane under its color flyout) open.
func (a *App) CloseMenuChain() {
	for len(a.popups) > 0 && a.popups[len(a.popups)-1].Kind == MenuPopup {
		a.CloseTopPopup(false)
	}
}

// setPopups makes s the popup stack through the undo seam. s is clipped to
// its length, so the next push copies it: a stack the log holds is never
// written through again, and closed above keeps the popups it lists.
func (a *App) setPopups(s []*Popup) { uia.Store(a.Win, &a.popups, slices.Clip(s)) }

// leafActivated is called by item builders when a menu leaf is clicked; it
// closes the menu chain, mirroring real menu behaviour.
func (a *App) leafActivated(p *Popup) {
	if p != nil && p.Kind == MenuPopup {
		a.CloseMenuChain()
	}
}
