package appkit

import (
	"fmt"
	"slices"

	"repro/internal/uia"
)

// Color picker ----------------------------------------------------------------

// ThemeColorNames are the base columns of the Office-style theme color grid.
var ThemeColorNames = []string{
	"White", "Black", "Gray", "Dark Blue", "Blue",
	"Light Blue", "Orange", "Gold", "Green", "Purple",
}

// ThemeColorVariants are the tint/shade rows of the theme color grid.
var ThemeColorVariants = []string{
	"", "Lighter 80%", "Lighter 60%", "Lighter 40%", "Darker 25%", "Darker 50%",
}

// StandardColorNames are the single standard-colors row.
var StandardColorNames = []string{
	"Dark Red", "Red", "Orange", "Yellow", "Light Green",
	"Green", "Light Blue", "Blue", "Dark Blue", "Purple",
}

// ColorPicker builds the shared Office-style color flyout: a theme color
// grid, a standard colors row, Automatic/No Color entries, and a "More
// Colors…" dialog with RGB spinners. One picker instance is reused by every
// color-bearing control (font color, underline color, outline, fill, ...);
// the opener's binding decides which property a pick modifies, making the
// picker's cells the canonical merge nodes of the navigation graph.
//
// onPick receives the chosen color name; it should consult a.Binding() for
// the semantic target.
func (a *App) ColorPicker(autoID, name string, onPick func(a *App, color string)) *Popup {
	p := a.NewMenu(autoID, name)
	body := p.Panel()

	body.MenuItem(autoID+"Auto", "Automatic", func(app *App) { onPick(app, "Automatic") })

	theme := body.Pane(autoID+"Theme", "Theme Colors")
	theme.El.SetDescription("Theme color grid")
	for _, variant := range ThemeColorVariants {
		for _, base := range ThemeColorNames {
			cname := base
			if variant != "" {
				cname = base + ", " + variant
			}
			cn := cname
			cell := theme.MenuItem("", cn, func(app *App) { onPick(app, cn) })
			cell.SetDescription(cn + " theme color")
		}
	}

	std := body.Pane(autoID+"Std", "Standard Colors")
	for _, base := range StandardColorNames {
		cn := base
		std.MenuItem("", cn, func(app *App) { onPick(app, cn) })
	}

	body.MenuItem(autoID+"None", "No Color", func(app *App) { onPick(app, "No Color") })

	more := a.NewDialog(autoID+"MoreDlg", "Colors")
	mb := more.Panel()
	mb.Label("Custom color (RGB)")
	r := mb.Spinner(autoID+"R", "Red", 0, 255, 0, nil)
	g := mb.Spinner(autoID+"G", "Green", 0, 255, 0, nil)
	b := mb.Spinner(autoID+"B", "Blue", 0, 255, 0, nil)
	more.AddOKCancel(func(app *App) {
		onPick(app, fmt.Sprintf("RGB(%d,%d,%d)", int(RangeValueOf(r)), int(RangeValueOf(g)), int(RangeValueOf(b))))
	})
	// Accepting a custom color dismisses the flyout beneath the dialog too.
	more.OnClose = func(app *App, accepted bool) {
		if accepted {
			app.CloseMenuChain()
		}
	}
	// Opening "More Colors…" keeps the picker's binding: the dialog opens
	// with the same semantic target.
	body.DialogButton(autoID+"More", "More Colors…", more, func(app *App) any { return app.Binding() })

	return p
}

// Paged gallery ----------------------------------------------------------------

// Gallery builds a flyout gallery (styles, themes, transitions, ...). Like
// real UIA galleries, every item is exposed in the accessibility tree even
// though only perPage items fit the viewport visually; Previous/Next row
// buttons scroll the viewport (a Scroll pattern on the item list) without
// changing accessibility visibility. Galleries longer than
// LargeEnumThreshold are marked as large enumerations for core-topology
// pruning. onPick may be nil. The item elements are built when the popup
// first opens; items must not change after the call.
func (a *App) Gallery(autoID, name string, items []string, perPage int, onPick func(a *App, item string)) *Popup {
	p := a.NewMenu(autoID, name)
	body := p.Panel()

	list := body.List(autoID+"Items", name+" Gallery")
	if len(items) > LargeEnumThreshold {
		list.El.MarkLargeEnum()
	}
	p.items = a.deferItems(list.El, len(items), func() {
		for _, item := range items {
			it := item
			list.MenuItem("", it, func(app *App) {
				if onPick != nil {
					onPick(app, it)
				}
			})
		}
	})
	if len(items) > perPage {
		sc := uia.NewVScroll(nil)
		list.El.SetPattern(uia.ScrollPattern, sc)
		step := 100 / float64((len(items)+perPage-1)/perPage)
		nav := body.Pane(autoID+"Nav", "Pager")
		nav.NavButton(autoID+"Prev", "Previous Row", func(*App) {
			_ = sc.ScrollStep(list.El, 0, -step)
		})
		nav.NavButton(autoID+"Next", "Next Row", func(*App) {
			_ = sc.ScrollStep(list.El, 0, step)
		})
	}
	return p
}

// Wizard -------------------------------------------------------------------------

// WizardStep is one page of a Wizard.
type WizardStep struct {
	Name  string
	Build func(p Panel)
}

// Wizard builds a multi-step modal dialog with Back/Next/Finish navigation
// (Excel's "Text to Columns" is the model). Back from step 2 re-reveals the
// step-1 controls and Next re-reveals step 2: the Back/Next pair forms a
// genuine cycle in the navigation graph (paper §3.2, "Cycles").
func (a *App) Wizard(autoID, name string, steps []WizardStep, onFinish func(a *App)) *Popup {
	dlg := a.NewDialog(autoID, name)
	body := dlg.Panel()

	var panels []*uia.Element
	for i, st := range steps {
		pg := body.Pane(fmt.Sprintf("%sStep%d", autoID, i+1),
			fmt.Sprintf("Step %d of %d: %s", i+1, len(steps), st.Name))
		pg.El.SetVisible(i == 0)
		if st.Build != nil {
			st.Build(pg)
		}
		panels = append(panels, pg.El)
	}

	// The current page is the one visible panel.
	cur := func() int { return slices.IndexFunc(panels, (*uia.Element).Visible) }
	show := func(n int) {
		if n < 0 || n >= len(panels) {
			return
		}
		for i, pg := range panels {
			pg.SetVisible(i == n)
		}
	}
	nav := body.Pane(autoID+"Nav", "Wizard Navigation")
	nav.NavButton(autoID+"Back", "Back", func(*App) { show(cur() - 1) })
	nav.NavButton(autoID+"NextStep", "Next", func(*App) { show(cur() + 1) })
	nav.Button(autoID+"Finish", "Finish", func(app *App) {
		if onFinish != nil {
			onFinish(app)
		}
		app.closePopup(dlg, true)
	})
	dlg.OnOpen = func(*App, any) { show(0) }
	return dlg
}

// Detail toggle -------------------------------------------------------------------

// AddDetailToggle wires a More/Less pair inside a dialog: More reveals the
// detail pane (and the Less button, hiding itself); Less hides the pane and
// re-reveals More. Because each button re-reveals the other, the pair forms
// a small, contained cycle in the navigation graph — Word's Find and
// Replace "More >>"/"<< Less" is the model.
func AddDetailToggle(p Panel, idPrefix, moreName, lessName string, pane *uia.Element) (more, less *uia.Element) {
	pane.SetVisible(false)
	more = p.NavButton(idPrefix+"More", moreName, nil)
	less = p.NavButton(idPrefix+"Less", lessName, nil)
	less.SetVisible(false)
	more.OnClick(func(*uia.Element) {
		pane.SetVisible(true)
		more.SetVisible(false)
		less.SetVisible(true)
	})
	less.OnClick(func(*uia.Element) {
		pane.SetVisible(false)
		less.SetVisible(false)
		more.SetVisible(true)
	})
	return more, less
}

// Ribbon collapse ----------------------------------------------------------------

// AddRibbonCollapse wires the Collapse-the-Ribbon / Pin-the-Ribbon pair:
// collapsing hides the ribbon body and reveals the pin button; pinning
// restores it and re-reveals the collapse button. The pair forms the
// archetypal A→B→A cycle of the navigation graph.
func (a *App) AddRibbonCollapse() (collapse, pin *uia.Element) {
	w := a.Window()
	collapse = w.NavButton("ribbonCollapse", "Collapse the Ribbon", nil)
	pin = w.NavButton("ribbonPin", "Pin the Ribbon", nil)
	pin.SetVisible(false)
	collapse.OnClick(func(*uia.Element) {
		a.body.SetVisible(false)
		collapse.SetVisible(false)
		pin.SetVisible(true)
	})
	pin.OnClick(func(*uia.Element) {
		a.body.SetVisible(true)
		pin.SetVisible(false)
		collapse.SetVisible(true)
	})
	return collapse, pin
}
