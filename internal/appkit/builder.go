package appkit

import (
	"fmt"

	"repro/internal/uia"
)

// Panel wraps a container element and provides the control builders. The
// zero value is not useful; panels are produced by App and Popup methods and
// by the container builders below.
type Panel struct {
	App   *App
	El    *uia.Element
	popup *Popup // non-nil inside a popup; leaf items auto-close menus
}

func (p Panel) child(autoID, name string, t uia.ControlType) *uia.Element {
	e := uia.NewElement(autoID, name, t)
	p.El.AddChild(e)
	return e
}

func (p Panel) sub(el *uia.Element) Panel {
	return Panel{App: p.App, El: el, popup: p.popup}
}

// Group adds a named Group container (a ribbon group) and returns its panel.
func (p Panel) Group(autoID, name string) Panel {
	g := p.child(autoID, name, uia.GroupControl)
	g.SetDescription(name + " group")
	return p.sub(g)
}

// Pane adds a generic Pane container.
func (p Panel) Pane(autoID, name string) Panel {
	return p.sub(p.child(autoID, name, uia.PaneControl))
}

// List adds a List container.
func (p Panel) List(autoID, name string) Panel {
	l := p.child(autoID, name, uia.ListControl)
	return p.sub(l)
}

// Toolbar adds a ToolBar container.
func (p Panel) Toolbar(autoID, name string) Panel {
	return p.sub(p.child(autoID, name, uia.ToolBarControl))
}

// Label adds a static Text element.
func (p Panel) Label(name string) *uia.Element {
	return p.child("", name, uia.TextControl)
}

// Separator adds a separator element.
func (p Panel) Separator() *uia.Element {
	return p.child("", "", uia.SeparatorControl)
}

// Button adds a push button. onClick receives the owning App and may be nil.
func (p Panel) Button(autoID, name string, onClick func(a *App)) *uia.Element {
	b := p.child(autoID, name, uia.ButtonControl)
	pop := p.popup
	b.OnClick(func(*uia.Element) {
		if onClick != nil {
			onClick(p.App)
		}
		p.App.leafActivated(pop)
	})
	return b
}

// NavButton adds a button that does NOT auto-close its popup: use it for
// controls that navigate within a popup (wizard Back/Next, gallery paging).
func (p Panel) NavButton(autoID, name string, onClick func(a *App)) *uia.Element {
	b := p.child(autoID, name, uia.ButtonControl)
	if onClick != nil {
		b.OnClick(func(*uia.Element) { onClick(p.App) })
	}
	return b
}

// ToggleButton adds a button with a Toggle pattern whose state lives in the
// application model via get/set.
func (p Panel) ToggleButton(autoID, name string, get func(a *App) bool, set func(a *App, on bool)) *uia.Element {
	b := p.child(autoID, name, uia.ButtonControl)
	b.SetPattern(uia.TogglePattern, &modelToggle{app: p.App, get: get, set: set})
	return b
}

// CheckBox adds a check box bound to the application model.
func (p Panel) CheckBox(autoID, name string, get func(a *App) bool, set func(a *App, on bool)) *uia.Element {
	b := p.child(autoID, name, uia.CheckBoxControl)
	b.SetPattern(uia.TogglePattern, &modelToggle{app: p.App, get: get, set: set})
	return b
}

// modelToggle adapts app-model state to the Toggler interface.
type modelToggle struct {
	app *App
	get func(a *App) bool
	set func(a *App, on bool)
}

func (m *modelToggle) ToggleState(*uia.Element) uia.ToggleState {
	if m.get(m.app) {
		return uia.ToggleOn
	}
	return uia.ToggleOff
}

func (m *modelToggle) SetToggleState(_ *uia.Element, s uia.ToggleState) error {
	m.set(m.app, s == uia.ToggleOn)
	return nil
}

// MenuButton adds a SplitButton that opens the given popup when clicked.
// bind computes the semantic binding passed to the popup (nil for none);
// this is how one shared color picker serves Font Color, Outline Color, and
// Underline Color with different semantics.
func (p Panel) MenuButton(autoID, name string, popup *Popup, bind func(a *App) any) *uia.Element {
	b := p.child(autoID, name, uia.SplitButtonControl)
	b.SetDescription("Opens the " + popup.Win.Name() + " menu")
	b.OnClick(func(*uia.Element) {
		var binding any
		if bind != nil {
			binding = bind(p.App)
		}
		popup.Open(binding)
	})
	return b
}

// DialogButton adds a Button that opens the given dialog popup when clicked.
func (p Panel) DialogButton(autoID, name string, popup *Popup, bind func(a *App) any) *uia.Element {
	b := p.child(autoID, name, uia.ButtonControl)
	b.SetDescription("Opens the " + popup.Win.Name() + " dialog")
	b.OnClick(func(*uia.Element) {
		var binding any
		if bind != nil {
			binding = bind(p.App)
		}
		popup.Open(binding)
	})
	return b
}

// MenuItem adds a leaf menu item; activating it runs onPick and auto-closes
// menu popups.
func (p Panel) MenuItem(autoID, name string, onPick func(a *App)) *uia.Element {
	it := p.child(autoID, name, uia.MenuItemControl)
	pop := p.popup
	it.OnClick(func(*uia.Element) {
		if onPick != nil {
			onPick(p.App)
		}
		p.App.leafActivated(pop)
	})
	return it
}

// ListItem adds a leaf list item; activating it runs onPick and auto-closes
// menu popups.
func (p Panel) ListItem(autoID, name string, onPick func(a *App)) *uia.Element {
	it := p.child(autoID, name, uia.ListItemControl)
	pop := p.popup
	it.OnClick(func(*uia.Element) {
		if onPick != nil {
			onPick(p.App)
		}
		p.App.leafActivated(pop)
	})
	return it
}

// Choice is the pending pick of a ChoiceList: a dialog's OK reads it with
// Chosen. It is instance state outside the elements, so it goes through
// the undo seam (uia.Store) and rewinds with them.
type Choice struct {
	owner  *uia.Element
	chosen string
}

// ChoiceList adds a List of leaf items, one per option: activating one
// makes it the pending choice (and auto-closes menu popups, as ListItem
// does).
func (p Panel) ChoiceList(autoID, name string, options []string) *Choice {
	c := &Choice{owner: p.App.Win}
	list := p.List(autoID, name)
	for _, opt := range options {
		list.ListItem("", opt, func(*App) { uia.Store(c.owner, &c.chosen, opt) })
	}
	return c
}

// Chosen returns the option picked last, or "" if none is.
func (c *Choice) Chosen() string { return c.chosen }

// Clear leaves no option picked.
func (c *Choice) Clear() { uia.Store(c.owner, &c.chosen, "") }

// RadioGroup adds a set of radio buttons with single selection. onPick runs
// with the index of the chosen option.
func (p Panel) RadioGroup(autoIDPrefix string, options []string, onPick func(a *App, i int)) []*uia.Element {
	sel := uia.NewSelectionList(false, nil)
	p.El.SetPattern(uia.SelectionPattern, sel)
	out := make([]*uia.Element, len(options))
	for i, name := range options {
		i := i
		rb := p.child(fmt.Sprintf("%s%d", autoIDPrefix, i), name, uia.RadioButtonControl)
		rb.SetPattern(uia.SelectionItemPattern, sel.Item())
		rb.OnClick(func(*uia.Element) {
			if onPick != nil {
				onPick(p.App, i)
			}
		})
		out[i] = rb
	}
	return out
}

// Edit adds an editable text field backed by a Value pattern.
func (p Panel) Edit(autoID, name, initial string, onChange func(a *App, v string)) *uia.Element {
	e := p.child(autoID, name, uia.EditControl)
	e.SetPattern(uia.ValuePattern, uia.NewValue(initial, func(_ *uia.Element, v string) {
		if onChange != nil {
			onChange(p.App, v)
		}
	}))
	return e
}

// CommitEdit adds an Edit whose value is applied only when ENTER is pressed
// while it has focus — the Excel Name Box behaviour the paper's §5.7 lesson
// discusses.
func (p Panel) CommitEdit(autoID, name, initial string, onCommit func(a *App, v string)) *uia.Element {
	e := p.Edit(autoID, name, initial, nil)
	e.SetDescription(name + "; press Enter to commit the input")
	p.App.registerCommit(e, onCommit)
	return e
}

// ComboBox adds a combo box with a collapsed option list. Lists longer than
// LargeEnumThreshold are flagged as large enumerations, which core-topology
// extraction prunes (paper §3.3). onPick runs with the chosen option. The
// option items are built when the list first expands; options must not
// change after the call.
func (p Panel) ComboBox(autoID, name string, options []string, onPick func(a *App, v string)) *uia.Element {
	cb := p.child(autoID, name, uia.ComboBoxControl)
	listEl := uia.NewElement(autoID+"List", name+" Options", uia.ListControl)
	cb.AddChild(listEl)
	if len(options) > LargeEnumThreshold {
		listEl.MarkLargeEnum()
	}
	x := uia.NewExpand(listEl)
	cb.SetPattern(uia.ExpandCollapsePattern, x)
	cb.SetPattern(uia.ValuePattern, uia.NewValue("", nil))
	cb.OnClick(func(e *uia.Element) {
		if x.ExpandState(e) == uia.Expanded {
			_ = x.Collapse(e)
		} else {
			_ = x.Expand(e)
		}
	})
	// The option items are built on the first expansion, by click or through
	// the pattern (lazy.go).
	l := p.App.deferItems(listEl, len(options), func() {
		for _, opt := range options {
			opt := opt
			it := uia.NewElement("", opt, uia.ListItemControl)
			listEl.AddChild(it)
			it.OnClick(func(*uia.Element) {
				v := cb.Pattern(uia.ValuePattern).(uia.Valuer)
				_ = v.SetValue(cb, opt)
				_ = x.Collapse(cb)
				if onPick != nil {
					onPick(p.App, opt)
				}
			})
		}
	})
	x.OnChange = func(_ *uia.Element, s uia.ExpandState) {
		if s == uia.Expanded {
			p.App.materialize(l)
		}
	}
	return cb
}

// LargeEnumThreshold is the option count beyond which an enumeration is
// considered "large" and excluded from core topologies.
const LargeEnumThreshold = 48

// ValueOf returns the text of el's Value pattern, such as an Edit's or a
// ComboBox's current value ("" without the pattern). Dialog handlers read
// their controls when they run instead of mirroring them in variables.
func ValueOf(el *uia.Element) string {
	if v, ok := el.Pattern(uia.ValuePattern).(uia.Valuer); ok {
		return v.Value(el)
	}
	return ""
}

// RangeValueOf returns the value of el's RangeValue pattern, such as a
// Spinner's (0 without the pattern).
func RangeValueOf(el *uia.Element) float64 {
	if r, ok := el.Pattern(uia.RangeValuePattern).(uia.RangeValuer); ok {
		return r.RangeValue(el)
	}
	return 0
}

// Spinner adds a numeric spinner backed by a RangeValue pattern.
func (p Panel) Spinner(autoID, name string, min, max, initial float64, onChange func(a *App, v float64)) *uia.Element {
	s := p.child(autoID, name, uia.SpinnerControl)
	s.SetPattern(uia.RangeValuePattern, &uia.SimpleRange{
		Min: min, Max: max, Val: initial,
		OnChange: func(_ *uia.Element, v float64) {
			if onChange != nil {
				onChange(p.App, v)
			}
		},
	})
	return s
}

// VScrollBar adds a vertical scroll bar bound to the application model.
func (p Panel) VScrollBar(autoID, name string, onChange func(a *App, v float64)) *uia.Element {
	sb := p.child(autoID, name, uia.ScrollBarControl)
	sc := uia.NewVScroll(func(_ *uia.Element, _, v float64) {
		if onChange != nil {
			onChange(p.App, v)
		}
	})
	sb.SetPattern(uia.ScrollPattern, sc)
	thumb := uia.NewElement(autoID+"Thumb", "Thumb", uia.ThumbControl)
	sb.AddChild(thumb)
	return sb
}

// Document adds a Document control carrying a Text pattern over body.
func (p Panel) Document(autoID, name string, text *uia.SimpleText) *uia.Element {
	d := p.child(autoID, name, uia.DocumentControl)
	d.SetPattern(uia.TextPattern, text)
	return d
}

// Custom attaches a prebuilt element.
func (p Panel) Custom(e *uia.Element) *uia.Element {
	p.El.AddChild(e)
	return e
}
