package slides

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/appkit"
	"repro/internal/office/catalog"
	"repro/internal/office/shared"
	"repro/internal/uia"
)

// Color-picker bindings.
const (
	BindFontColor     = "font-color"
	BindBackground    = "slide-background"
	BindShapeFill     = "shape-fill"
	BindShapeOutline  = "shape-outline"
	BindPictureBorder = "picture-border"
)

// ContextImageSelected reveals the Picture Format tab.
const ContextImageSelected = "image-selected"

// VisibleThumbs is the number of slide thumbnails visible at once; the panel
// scrollbar pans over the rest (the paper's Task 2).
const VisibleThumbs = 6

// App is the simulated PowerPoint application.
type App struct {
	*appkit.App
	Deck *Deck

	PictureBorder string

	thumbList *uia.Element
	thumbs    []*uia.Element
	thumbTop  int          // first visible thumbnail (0-based)
	showList  appkit.Panel // the Custom Slide Show dialog's one item per slide
	titleEl   *uia.Element
	bodyEl    *uia.Element
}

// New assembles the PowerPoint simulator with n slides (default 12).
func New(n int) *App {
	n = deckSize(n)
	p := &App{App: appkit.New("PowerPoint"), Deck: NewDeck(n)}
	p.Deck.owner = p.Win

	picker := p.ColorPicker("clrPicker", "Colors", p.applyColor)
	p.buildHome(picker)
	p.buildInsert()
	p.buildDesign(picker)
	p.buildTransitions()
	p.buildAnimations()
	p.buildSlideShow()
	p.buildReviewView()
	p.buildPictureFormat(picker)
	shared.AddBackstage(p.App, func(_ *appkit.App, name string) { p.Deck.Saved = name })
	// See word.New: ribbon collapse is operator-blocklisted for modeling.
	collapse, _ := p.AddRibbonCollapse()
	p.Block(collapse.ControlID())
	p.buildBody()

	p.RegisterContext(appkit.Context{Name: ContextImageSelected})
	p.Layout()
	return p
}

// deckSize applies New's default deck size to n.
func deckSize(n int) int {
	if n <= 0 {
		return 12
	}
	return n
}

// Reset puts the deck where New(n) would: a fresh n-slide deck, no picture
// border, the thumbnail panel scrolled to the top. When n differs from the
// number of thumbnails, the thumbnails and the Custom Slide Show list are
// rebuilt for n slides and the application is laid out again, as New(n)
// lays it out; like every other UI change, that goes through the elements'
// undo seam.
func (p *App) Reset(n int) {
	n = deckSize(n)
	p.Deck = NewDeck(n)
	p.Deck.owner = p.Win
	p.PictureBorder = ""
	if len(p.thumbs) != n {
		p.refreshThumbs()
		for _, it := range slices.Clone(p.showList.El.Children()) {
			p.showList.El.RemoveChild(it)
		}
		p.addShowItems()
		p.Layout()
	}
	p.ScrollThumbsTo(0)
}

func (p *App) applyColor(a *appkit.App, color string) {
	switch a.Binding() {
	case BindFontColor:
		if t := p.Deck.CurrentSlide().Title(); t != nil {
			_ = t
		}
	case BindBackground:
		// Format Background: a pick colors the current slide and stays
		// pending so Apply to All can copy it to the rest (Task 1).
		p.Deck.PendingBackground = color
		if s := p.Deck.CurrentSlide(); s != nil {
			s.Background = color
		}
	case BindShapeFill:
		if s := p.Deck.CurrentSlide(); s != nil && len(s.Shapes) > 0 {
			s.Shapes[len(s.Shapes)-1].Fill = color
		}
	case BindShapeOutline:
		if s := p.Deck.CurrentSlide(); s != nil && len(s.Shapes) > 0 {
			s.Shapes[len(s.Shapes)-1].Border = color
		}
	case BindPictureBorder:
		p.PictureBorder = color
	}
}

func (p *App) layoutGallery() *appkit.Popup {
	if g := p.popupByWindowID("galLayouts"); g != nil {
		return g
	}
	return p.Gallery("galLayouts", "Slide Layouts", catalog.SlideLayouts, 11,
		func(_ *appkit.App, layout string) {
			p.Deck.InsertSlide(layout)
			p.refreshThumbs()
			p.Layout() // as Reset does: the new thumbnails have no rectangles yet
		})
}

func (p *App) popupByWindowID(autoID string) *appkit.Popup {
	for _, t := range p.PopupTemplates() {
		if t.Win.AutomationID() == autoID {
			return t
		}
	}
	return nil
}

func (p *App) buildHome(picker *appkit.Popup) {
	home := p.Tab("tabHome", "Home")

	clip := home.Group("grpClipboard", "Clipboard")
	clip.Button("btnPaste", "Paste", nil)
	clip.Button("btnCut", "Cut", nil)
	clip.Button("btnCopy", "Copy", nil)
	clip.Button("btnFormatPainter", "Format Painter", nil)

	sl := home.Group("grpSlides", "Slides")
	layoutGal := p.layoutGallery()
	ns := sl.MenuButton("btnNewSlide", "New Slide", layoutGal, nil)
	ns.SetDescription("Insert a new slide; pick a layout from the gallery")
	// The Layout button reuses the same gallery popup: a second path to the
	// same controls (merge nodes).
	sl.MenuButton("btnLayout", "Layout", layoutGal, nil)
	sl.Button("btnResetSlide", "Reset", nil)
	sectionMenu := p.NewMenu("mnuSection", "Section")
	for _, m := range []string{"Add Section", "Rename Section",
		"Remove Section", "Remove All Sections", "Collapse All", "Expand All"} {
		sectionMenu.Panel().MenuItem("", m, nil)
	}
	sl.MenuButton("btnSection", "Section", sectionMenu, nil)

	font := home.Group("grpFont", "Font")
	shared.AddFontControls(font, "p",
		func(*appkit.App, string) {},
		func(_ *appkit.App, v string) {
			if t := p.selectedTitle(); t != nil {
				var f float64
				fmt.Sscanf(v, "%f", &f)
				if f > 0 {
					t.FontSize = f
				}
			}
		})
	font.ToggleButton("btnBold", "Bold", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.ToggleButton("btnItalic", "Italic", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.ToggleButton("btnUnderlineP", "Underline", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.Button("btnIncreaseFont", "Increase Font Size", func(*appkit.App) {
		if t := p.selectedTitle(); t != nil {
			t.FontSize += 2
		}
	})
	font.Button("btnDecreaseFont", "Decrease Font Size", func(*appkit.App) {
		if t := p.selectedTitle(); t != nil && t.FontSize > 2 {
			t.FontSize -= 2
		}
	})
	font.MenuButton("btnFontColorP", "Font Color", picker,
		func(*appkit.App) any { return BindFontColor })

	par := home.Group("grpParagraph", "Paragraph")
	for _, al := range []string{"Align Left", "Center", "Align Right", "Justify"} {
		par.Button("btnAlign"+strings.ReplaceAll(al, " ", ""), al, nil)
	}
	par.Button("btnBulletsP", "Bullets", nil)
	par.Button("btnNumberingP", "Numbering", nil)
	dirMenu := p.NewMenu("mnuTextDirection", "Text Direction")
	for _, m := range []string{"Horizontal", "Rotate 90°", "Rotate 270°", "Stacked"} {
		dirMenu.Panel().MenuItem("", m, nil)
	}
	par.MenuButton("btnTextDirection", "Text Direction", dirMenu, nil)

	draw := home.Group("grpDrawing", "Drawing")
	shapesGal := p.Gallery("galDrawShapes", "Shapes", catalog.ShapeNames(), 48,
		func(_ *appkit.App, s string) {
			cur := p.Deck.CurrentSlide()
			cur.Shapes = append(cur.Shapes, &Shape{Kind: "shape:" + s, FontSize: 18})
		})
	shapesGal.Body.MarkLargeEnum()
	draw.MenuButton("btnDrawShapes", "Shapes", shapesGal, nil)
	arrangeMenu := p.NewMenu("mnuArrange", "Arrange")
	for _, m := range []string{"Bring to Front", "Send to Back",
		"Bring Forward", "Send Backward", "Group", "Ungroup", "Rotate",
		"Align", "Selection Pane"} {
		arrangeMenu.Panel().MenuItem("", m, nil)
	}
	draw.MenuButton("btnArrange", "Arrange", arrangeMenu, nil)
	qs := p.Gallery("galQuickStyles", "Quick Styles",
		quickStyleNames(), 14, nil)
	draw.MenuButton("btnQuickStyles", "Quick Styles", qs, nil)
	draw.MenuButton("btnShapeFill", "Shape Fill", picker,
		func(*appkit.App) any { return BindShapeFill })
	draw.MenuButton("btnShapeOutline", "Shape Outline", picker,
		func(*appkit.App) any { return BindShapeOutline })

	edit := home.Group("grpEditing", "Editing")
	edit.Button("btnFindP", "Find", nil)
	edit.Button("btnReplaceP", "Replace", nil)
	selMenu := p.NewMenu("mnuSelectP", "Select")
	for _, m := range []string{"Select All", "Select Objects", "Selection Pane"} {
		selMenu.Panel().MenuItem("", m, nil)
	}
	edit.MenuButton("btnSelectP", "Select", selMenu, nil)
}

func (p *App) buildInsert() {
	ins := p.Tab("tabInsert", "Insert")
	sl := ins.Group("grpSlidesIns", "Slides")
	sl.MenuButton("btnNewSlideIns", "New Slide", p.layoutGallery(), nil)
	reuse := p.NewMenu("mnuReuseSlides", "Reuse Slides")
	for i := 1; i <= 12; i++ {
		reuse.Panel().MenuItem("", fmt.Sprintf("Recent Deck %d", i), nil)
	}
	sl.MenuButton("btnReuseSlides", "Reuse Slides", reuse, nil)

	tbl := ins.Group("grpTablesIns", "Tables")
	tblMenu := p.NewMenu("mnuTableP", "Table")
	tg := tblMenu.Panel().Pane("pnlTableGridP", "Insert Table Grid")
	for r := 1; r <= 8; r++ {
		for c := 1; c <= 10; c++ {
			tg.MenuItem("", fmt.Sprintf("%dx%d Table", c, r), nil)
		}
	}
	tbl.MenuButton("btnTableP", "Table", tblMenu, nil)

	shared.AddIllustrations(p.App, ins, "p", func(_ *appkit.App, what string) {
		cur := p.Deck.CurrentSlide()
		cur.Shapes = append(cur.Shapes, &Shape{Kind: what, FontSize: 18})
		if what == "picture" {
			_ = p.EnterContext(ContextImageSelected)
		}
	})

	smartArt := p.Gallery("galSmartArt", "SmartArt", smartArtNames(), 40, nil)
	smartArt.Body.MarkLargeEnum()
	ins.Group("grpSmartArt", "SmartArt").MenuButton("btnSmartArt", "SmartArt", smartArt, nil)

	media := ins.Group("grpMedia", "Media")
	vidMenu := p.NewMenu("mnuVideo", "Video")
	for _, m := range []string{"This Device", "Stock Videos", "Online Videos"} {
		vidMenu.Panel().MenuItem("", m, nil)
	}
	media.MenuButton("btnVideo", "Video", vidMenu, nil)
	audMenu := p.NewMenu("mnuAudio", "Audio")
	for _, m := range []string{"Audio on My PC", "Record Audio"} {
		audMenu.Panel().MenuItem("", m, nil)
	}
	media.MenuButton("btnAudio", "Audio", audMenu, nil)
	media.Button("btnScreenRecording", "Screen Recording", nil)

	links := ins.Group("grpLinks", "Links")
	zoomMenu := p.NewMenu("mnuZoomIns", "Zoom")
	for _, m := range []string{"Summary Zoom", "Section Zoom", "Slide Zoom"} {
		zoomMenu.Panel().MenuItem("", m, nil)
	}
	links.MenuButton("btnZoomIns", "Zoom", zoomMenu, nil)
	linkDlg := p.NewDialog("dlgInsertLink", "Insert Hyperlink")
	lp := linkDlg.Panel()
	lp.Edit("edLinkText", "Text to display", "", nil)
	lp.Edit("edLinkAddress", "Address", "", nil)
	lp.RadioGroup("rbLinkTo", []string{"Existing File or Web Page",
		"Place in This Document", "Create New Document", "E-mail Address"}, nil)
	linkDlg.AddOKCancel(nil)
	links.DialogButton("btnLink", "Link", linkDlg, nil)
	actionDlg := p.NewDialog("dlgAction", "Action Settings")
	ap := actionDlg.Panel()
	ap.RadioGroup("rbAction", []string{"None", "Hyperlink to", "Run program",
		"Run macro", "Object action"}, nil)
	ap.CheckBox("chkPlaySound", "Play sound",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	actionDlg.AddOKCancel(nil)
	links.DialogButton("btnAction", "Action", actionDlg, nil)

	text := ins.Group("grpTextIns", "Text")
	text.Button("btnTextBoxP", "Text Box", func(*appkit.App) {
		cur := p.Deck.CurrentSlide()
		cur.Shapes = append(cur.Shapes, &Shape{Kind: "textbox", FontSize: 18})
	})
	hfDlg := p.NewDialog("dlgHeaderFooter", "Header and Footer")
	hp := hfDlg.Panel()
	hp.CheckBox("chkDateTime", "Date and time", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	hp.CheckBox("chkSlideNumber", "Slide number", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	hp.CheckBox("chkFooter", "Footer", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	hfDlg.AddOKCancel(nil)
	text.DialogButton("btnHeaderFooterP", "Header & Footer", hfDlg, nil)
	wa := p.Gallery("galWordArtP", "WordArt", catalog.WordArtStyles(), 10, nil)
	text.MenuButton("btnWordArtP", "WordArt", wa, nil)

	shared.AddSymbols(p.App, ins, "p", nil)
}

func (p *App) buildDesign(picker *appkit.Popup) {
	design := p.Tab("tabDesign", "Design")
	shared.AddThemes(p.App, design.Group("grpThemesP", "Themes"), "p",
		func(_ *appkit.App, th string) { p.Deck.Theme = th })

	variants := design.Group("grpVariants", "Variants")
	vg := p.Gallery("galVariants", "Variants",
		[]string{"Variant 1", "Variant 2", "Variant 3", "Variant 4"}, 4, nil)
	variants.MenuButton("btnVariants", "Variants", vg, nil)

	cust := design.Group("grpCustomize", "Customize")
	sizeMenu := p.NewMenu("mnuSlideSize", "Slide Size")
	sm := sizeMenu.Panel()
	for _, s := range []string{"Standard (4:3)", "Widescreen (16:9)"} {
		s := s
		sm.MenuItem("", s, func(*appkit.App) { p.Deck.SlideSize = s })
	}
	szDlg := p.NewDialog("dlgSlideSize", "Slide Size")
	szDlg.Panel().ComboBox("cbSlideSizeFor", "Slides sized for",
		[]string{"On-screen Show (4:3)", "On-screen Show (16:9)",
			"Letter Paper", "A4 Paper", "35mm Slides", "Banner", "Custom"}, nil)
	szDlg.AddOKCancel(nil)
	sm.DialogButton("btnCustomSlideSize", "Custom Slide Size", szDlg, nil)
	cust.MenuButton("btnSlideSize", "Slide Size", sizeMenu, nil)

	// Format Background pane: the paper's Table 1 Task 1 path.
	fb := p.NewDialog("dlgFormatBackground", "Format Background")
	fbp := fb.Panel()
	fills := fbp.Pane("pnlFillKind", "Fill")
	fills.RadioGroup("rbFill", []string{"Solid fill", "Gradient fill",
		"Picture or texture fill", "Pattern fill"}, nil)
	fc := fbp.MenuButton("btnFillColor", "Fill Color", picker,
		func(*appkit.App) any { return BindBackground })
	fc.SetDescription("Color for the slide background fill")
	fbp.Spinner("spnTransparency", "Transparency", 0, 100, 0, nil)
	applyAll := fbp.NavButton("btnApplyToAll", "Apply to All", func(*appkit.App) {
		if p.Deck.PendingBackground != "" {
			p.Deck.SetBackgroundAll(p.Deck.PendingBackground)
		}
	})
	applyAll.SetDescription("Apply the current background to every slide in the presentation")
	fbp.NavButton("btnResetBackground", "Reset Background", func(*appkit.App) {
		if s := p.Deck.CurrentSlide(); s != nil {
			s.Background = "White"
		}
		p.Deck.PendingBackground = ""
	})
	fbd := design.DialogButton("btnFormatBackground", "Format Background", fb, nil)
	fbd.SetDescription("Open the Format Background pane")

	ideas := p.Gallery("galDesignIdeas", "Design Ideas", designIdeaNames(), 16, nil)
	design.Group("grpDesigner", "Designer").MenuButton("btnDesignIdeas", "Design Ideas", ideas, nil)
}

func (p *App) buildTransitions() {
	tr := p.Tab("tabTransitions", "Transitions")
	gal := p.Gallery("galTransitions", "Transition Effects", catalog.Transitions, 16,
		func(_ *appkit.App, t string) {
			if s := p.Deck.CurrentSlide(); s != nil {
				s.Transition = t
			}
		})
	g := tr.Group("grpTransition", "Transition to This Slide")
	tb := g.MenuButton("btnTransitionGallery", "Transition Effects", gal, nil)
	tb.SetDescription("Choose the transition for the current slide")
	eo := p.NewMenu("mnuEffectOptions", "Effect Options")
	for _, m := range []string{"From Right", "From Left", "From Top",
		"From Bottom", "From Top-Right", "From Top-Left", "From Bottom-Right",
		"From Bottom-Left", "Horizontal", "Vertical", "In", "Out",
		"Through Black", "Smoothly"} {
		eo.Panel().MenuItem("", m, nil)
	}
	g.MenuButton("btnEffectOptions", "Effect Options", eo, nil)

	timing := tr.Group("grpTiming", "Timing")
	timing.Spinner("spnDuration", "Duration", 0.01, 59, 1, nil)
	ata := timing.Button("btnApplyToAllTransitions", "Apply To All", func(*appkit.App) {
		if s := p.Deck.CurrentSlide(); s != nil {
			p.Deck.SetTransitionAll(s.Transition)
		}
	})
	ata.SetDescription("Apply this slide's transition to all slides")
	timing.CheckBox("chkOnMouseClick", "On Mouse Click",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})
	timing.CheckBox("chkAfterTime", "After",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
}

func (p *App) buildAnimations() {
	an := p.Tab("tabAnimations", "Animations")
	gal := p.Gallery("galAnimations", "Animation Effects", catalog.Animations(), 16, nil)
	gal.Body.MarkLargeEnum()
	g := an.Group("grpAnimation", "Animation")
	g.MenuButton("btnAnimationGallery", "Animation Styles", gal, nil)
	addGal := p.Gallery("galAddAnimation", "Add Animation", catalog.Animations(), 16, nil)
	addGal.Body.MarkLargeEnum()

	adv := an.Group("grpAdvancedAnimation", "Advanced Animation")
	adv.MenuButton("btnAddAnimation", "Add Animation", addGal, nil)
	for _, kind := range []struct {
		id, name string
		count    int
	}{
		{"dlgMoreEntrance", "More Entrance Effects", 52},
		{"dlgMoreEmphasis", "More Emphasis Effects", 40},
		{"dlgMoreExit", "More Exit Effects", 52},
	} {
		dlg := p.NewDialog(kind.id, kind.name)
		dp := dlg.Panel()
		lst := dp.List(kind.id+"List", "Effects")
		lst.El.MarkLargeEnum()
		for i := 1; i <= kind.count; i++ {
			lst.ListItem("", fmt.Sprintf("%s %d", strings.TrimPrefix(kind.name, "More "), i), nil)
		}
		dlg.AddOKCancel(nil)
		addGal.Panel().DialogButton("btn"+kind.id, kind.name, dlg, nil)
	}
	adv.Button("btnAnimationPane", "Animation Pane", nil)
	trig := p.NewMenu("mnuTrigger", "Trigger")
	for _, m := range []string{"On Click of", "On Bookmark"} {
		trig.Panel().MenuItem("", m, nil)
	}
	adv.MenuButton("btnTrigger", "Trigger", trig, nil)
	adv.Button("btnAnimationPainter", "Animation Painter", nil)

	timing := an.Group("grpAnimTiming", "Timing")
	timing.ComboBox("cbAnimStart", "Start",
		[]string{"On Click", "With Previous", "After Previous"}, nil)
	timing.Spinner("spnAnimDuration", "Duration", 0.01, 59, 0.5, nil)
	timing.Spinner("spnAnimDelay", "Delay", 0, 59, 0, nil)
	timing.Button("btnMoveEarlier", "Move Earlier", nil)
	timing.Button("btnMoveLater", "Move Later", nil)
}

func (p *App) buildSlideShow() {
	ss := p.Tab("tabSlideShow", "Slide Show")
	start := ss.Group("grpStartSlideShow", "Start Slide Show")
	fromBeginning := start.Button("btnFromBeginning", "From Beginning", nil)
	fromBeginning.SetDescription("Start the slide show from the first slide (full screen)")
	fromCurrent := start.Button("btnFromCurrent", "From Current Slide", nil)
	// Full-screen slide show cannot be exited with Esc in the modeled app:
	// the ripper must blocklist these controls (paper §4.1).
	p.Block(fromBeginning.ControlID(), fromCurrent.ControlID())
	start.Button("btnPresentOnline", "Present Online", nil)
	customShow := p.NewDialog("dlgCustomShow", "Define Custom Show")
	cp := customShow.Panel()
	p.showList = cp.List("lstShowSlides", "Slides in presentation")
	p.addShowItems()
	cp.Edit("edShowName", "Slide show name", "Custom Show 1", nil)
	customShow.AddOKCancel(nil)
	start.DialogButton("btnCustomSlideShow", "Custom Slide Show", customShow, nil)

	monitors := ss.Group("grpMonitors", "Monitors")
	monitors.ComboBox("cbMonitor", "Monitor", []string{"Automatic", "Primary Monitor"}, nil)
	monitors.CheckBox("chkPresenterView", "Use Presenter View",
		func(*appkit.App) bool { return true }, func(*appkit.App, bool) {})

	setup := ss.Group("grpSetUp", "Set Up")
	setupDlg := p.NewDialog("dlgSetUpShow", "Set Up Show")
	sp := setupDlg.Panel()
	sp.RadioGroup("rbShowType", []string{"Presented by a speaker (full screen)",
		"Browsed by an individual (window)", "Browsed at a kiosk (full screen)"}, nil)
	sp.CheckBox("chkLoopContinuously", "Loop continuously until 'Esc'",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	sp.CheckBox("chkWithoutNarration", "Show without narration",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	showDetails := sp.Pane("pnlShowDetails", "Advanced Show Settings")
	showDetails.ComboBox("cbPenColor", "Pen color", []string{"Red", "Blue", "Black"}, nil)
	showDetails.CheckBox("chkDisableHardware", "Disable hardware graphics acceleration",
		func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	appkit.AddDetailToggle(sp, "btnShow", "Show Details", "Hide Details", showDetails.El)
	setupDlg.AddOKCancel(nil)
	setup.DialogButton("btnSetUpSlideShow", "Set Up Slide Show", setupDlg, nil)
	setup.Button("btnHideSlide", "Hide Slide", func(*appkit.App) {
		if s := p.Deck.CurrentSlide(); s != nil {
			s.Hidden = true
		}
	})
	setup.Button("btnRehearseTimings", "Rehearse Timings", nil)
}

// addShowItems lists every slide of the deck in the Custom Slide Show
// dialog.
func (p *App) addShowItems() {
	for i := range p.Deck.Slides {
		p.showList.ListItem("", fmt.Sprintf("Slide %d", i+1), nil)
	}
}

func (p *App) buildReviewView() {
	rev := p.Tab("tabReview", "Review")
	rev.Group("grpProofingP", "Proofing").Button("btnSpellingP", "Spelling", nil)
	rev.Group("grpCommentsP", "Comments").Button("btnNewCommentP", "New Comment", nil)

	view := p.Tab("tabView", "View")
	pv := view.Group("grpPresentationViews", "Presentation Views")
	for _, v := range []string{"Normal", "Outline View", "Slide Sorter",
		"Notes Page", "Reading View"} {
		pv.Button("btnView"+strings.ReplaceAll(v, " ", ""), v, nil)
	}
	master := view.Group("grpMasterViews", "Master Views")
	master.Button("btnSlideMaster", "Slide Master", nil)
	master.Button("btnHandoutMaster", "Handout Master", nil)
	master.Button("btnNotesMaster", "Notes Master", nil)
	zoom := view.Group("grpZoomP", "Zoom")
	zoom.Button("btnZoomP", "Zoom", nil)
	zoom.Button("btnFitToWindow", "Fit to Window", nil)
	color := view.Group("grpColorGray", "Color/Grayscale")
	color.Button("btnColorView", "Color", nil)
	color.Button("btnGrayscale", "Grayscale", nil)
	color.Button("btnBlackWhite", "Black and White", nil)
}

func (p *App) buildPictureFormat(picker *appkit.Popup) {
	pf := p.ContextTab("tabPictureFormatP", "Picture Format", ContextImageSelected)
	styles := pf.Group("grpPicStylesP", "Picture Styles")
	pb := styles.MenuButton("btnPictureBorderP", "Picture Border", picker,
		func(*appkit.App) any { return BindPictureBorder })
	pb.SetDescription("Outline color for the selected picture")
	fx := p.NewMenu("mnuPicEffectsP", "Picture Effects")
	for _, e := range []string{"Shadow", "Reflection", "Glow", "Soft Edges",
		"Bevel", "3-D Rotation"} {
		fx.Panel().MenuItem("", e, nil)
	}
	styles.MenuButton("btnPictureEffectsP", "Picture Effects", fx, nil)
	size := pf.Group("grpPicSizeP", "Size")
	size.Button("btnCropP", "Crop", nil)
	size.Spinner("spnPicHeightP", "Height", 0.1, 30, 3, nil)
	size.Spinner("spnPicWidthP", "Width", 0.1, 30, 4, nil)
}

// buildBody attaches the slide thumbnail panel (with its scrollbar) and the
// editing pane.
func (p *App) buildBody() {
	panel := p.Window().Pane("pnlSlidePanel", "Slide Thumbnail Panel")
	lst := uia.NewElement("lstSlides", "Slides", uia.ListControl)
	lst.SetDescription("Slide thumbnails; the scrollbar pans through the deck")
	panel.Custom(lst)
	p.thumbList = lst
	sel := uia.NewSelectionList(true, func(items []*uia.Element) {
		selected, current := map[int]bool{}, p.Deck.Current
		for _, it := range items {
			for i, th := range p.thumbs {
				if th == it {
					selected[i] = true
					current = i
				}
			}
		}
		p.Deck.Select(selected, current)
	})
	lst.SetPattern(uia.SelectionPattern, sel)
	for i := range p.Deck.Slides {
		th := uia.NewElement(fmt.Sprintf("thumbSlide%d", i+1),
			fmt.Sprintf("Slide %d", i+1), uia.ListItemControl)
		th.SetPattern(uia.SelectionItemPattern, sel.Item())
		lst.AddChild(th)
		p.thumbs = append(p.thumbs, th)
	}
	p.applyThumbViewport()
	panel.VScrollBar("sbSlides", "Slides Vertical Scroll Bar", func(_ *appkit.App, v float64) {
		p.ScrollThumbsTo(v)
	})

	edit := p.Window().Pane("pnlSlideEdit", "Slide Editing Pane")
	title := uia.NewElement("shpTitle", "Title Placeholder", uia.EditControl)
	title.SetPattern(uia.ValuePattern, &titleValue{p: p})
	edit.Custom(title)
	p.titleEl = title
	body := uia.NewElement("shpBody", "Content Placeholder", uia.EditControl)
	body.SetPattern(uia.ValuePattern, &bodyValue{p: p})
	edit.Custom(body)
	p.bodyEl = body

	status := p.Window().Pane("pnlStatusBarP", "Status Bar")
	status.Label("Slide 1 of 12")
}

// titleValue/bodyValue adapt the current slide's shapes to Value patterns.
type titleValue struct{ p *App }

func (tv *titleValue) Value(*uia.Element) string {
	if t := tv.p.Deck.CurrentSlide().Title(); t != nil {
		return t.Text
	}
	return ""
}
func (tv *titleValue) SetValue(_ *uia.Element, v string) error {
	if t := tv.p.Deck.CurrentSlide().Title(); t != nil {
		t.Text = v
	}
	return nil
}
func (tv *titleValue) IsReadOnly(*uia.Element) bool { return false }

type bodyValue struct{ p *App }

func (bv *bodyValue) Value(*uia.Element) string {
	for _, sh := range bv.p.Deck.CurrentSlide().Shapes {
		if sh.Kind == "body" {
			return sh.Text
		}
	}
	return ""
}
func (bv *bodyValue) SetValue(_ *uia.Element, v string) error {
	for _, sh := range bv.p.Deck.CurrentSlide().Shapes {
		if sh.Kind == "body" {
			sh.Text = v
			return nil
		}
	}
	return nil
}
func (bv *bodyValue) IsReadOnly(*uia.Element) bool { return false }

// ScrollThumbsTo pans the thumbnail viewport to v% of the scroll range.
func (p *App) ScrollThumbsTo(v float64) {
	maxTop := len(p.thumbs) - VisibleThumbs
	if maxTop < 0 {
		maxTop = 0
	}
	top := int(v/100*float64(maxTop) + 0.5)
	if top < 0 {
		top = 0
	}
	if top > maxTop {
		top = maxTop
	}
	uia.Store(p.Win, &p.thumbTop, top)
	p.applyThumbViewport()
}

// ThumbTop returns the index of the first visible thumbnail.
func (p *App) ThumbTop() int { return p.thumbTop }

func (p *App) applyThumbViewport() {
	for i, th := range p.thumbs {
		th.SetVisible(i >= p.thumbTop && i < p.thumbTop+VisibleThumbs)
	}
}

func (p *App) refreshThumbs() {
	// Recreate thumbnails to match the deck (slides may have been added).
	sel := p.thumbList.Pattern(uia.SelectionPattern)
	for _, th := range p.thumbs {
		p.thumbList.RemoveChild(th)
	}
	list, _ := sel.(*uia.SimpleSelectionList)
	thumbs := make([]*uia.Element, 0, len(p.Deck.Slides))
	for i := range p.Deck.Slides {
		th := uia.NewElement(fmt.Sprintf("thumbSlide%d", i+1),
			fmt.Sprintf("Slide %d", i+1), uia.ListItemControl)
		if list != nil {
			th.SetPattern(uia.SelectionItemPattern, list.Item())
		}
		p.thumbList.AddChild(th)
		thumbs = append(thumbs, th)
	}
	// The thumbnails mirror the list's children, so they rewind with them.
	uia.Store(p.Win, &p.thumbs, thumbs)
	p.applyThumbViewport()
}

// Thumb returns the thumbnail element for a 0-based slide index.
//
//dmi:testonly slides and core tests click thumbnails by index
func (p *App) Thumb(i int) *uia.Element {
	if i < 0 || i >= len(p.thumbs) {
		return nil
	}
	return p.thumbs[i]
}

func (p *App) selectedTitle() *Shape {
	if s := p.Deck.CurrentSlide(); s != nil {
		return s.Title()
	}
	return nil
}

func quickStyleNames() []string {
	var out []string
	for _, kind := range []string{"Colored Fill", "Colored Outline",
		"Subtle Effect", "Moderate Effect", "Intense Effect"} {
		for _, c := range []string{"Blue", "Orange", "Gray", "Gold", "Green",
			"Purple", "Dark Red"} {
			out = append(out, kind+" - "+c)
		}
	}
	return out
}

func smartArtNames() []string {
	kinds := map[string][]string{
		"List": {"Basic Block List", "Alternating Hexagons", "Picture Caption",
			"Lined List", "Vertical Bullet List", "Vertical Box List",
			"Horizontal Bullet List", "Square Accent List", "Picture Accent List",
			"Bending Picture Accent List", "Stacked List", "Increasing Circle Process",
			"Pie Process", "Detailed Process", "Grouped List", "Horizontal Picture List",
			"Continuous Picture List", "Picture Strips", "Vertical Picture List",
			"Trapezoid List", "Table List", "Segmented Process", "Vertical Curved List"},
		"Process": {"Basic Process", "Step Up Process", "Step Down Process",
			"Accent Process", "Alternating Flow", "Continuous Block Process",
			"Increasing Arrows Process", "Continuous Arrow Process",
			"Process Arrows", "Circle Accent Timeline", "Basic Timeline",
			"Basic Chevron Process", "Closed Chevron Process", "Chevron List",
			"Sub-Step Process", "Phased Process", "Random to Result Process",
			"Staggered Process", "Process List", "Circle Arrow Process",
			"Basic Bending Process", "Vertical Bending Process",
			"Ascending Picture Accent Process", "Upward Arrow",
			"Descending Process", "Circular Bending Process", "Equation",
			"Vertical Equation", "Funnel", "Gear"},
		"Cycle": {"Basic Cycle", "Text Cycle", "Block Cycle", "Nondirectional Cycle",
			"Continuous Cycle", "Multidirectional Cycle", "Segmented Cycle",
			"Basic Pie", "Radial Cycle", "Basic Radial", "Diverging Radial",
			"Radial Venn", "Radial Cluster"},
		"Hierarchy": {"Organization Chart", "Name and Title Organization Chart",
			"Half Circle Organization Chart", "Circle Picture Hierarchy",
			"Hierarchy", "Labeled Hierarchy", "Table Hierarchy",
			"Horizontal Organization Chart", "Horizontal Multi-Level Hierarchy",
			"Horizontal Hierarchy", "Horizontal Labeled Hierarchy"},
		"Relationship": {"Balance", "Funnel Relationship", "Gear Relationship",
			"Arrow Ribbon", "Opposing Arrows", "Converging Arrows",
			"Diverging Arrows", "Plus and Minus", "Counterbalance Arrows",
			"Segmented Pyramid", "Nested Target", "Converging Radial",
			"Basic Target", "Basic Venn", "Linear Venn", "Stacked Venn"},
		"Matrix":  {"Basic Matrix", "Titled Matrix", "Grid Matrix", "Cycle Matrix"},
		"Pyramid": {"Basic Pyramid", "Inverted Pyramid", "Pyramid List", "Segmented Pyramid Pic"},
	}
	order := []string{"List", "Process", "Cycle", "Hierarchy", "Relationship", "Matrix", "Pyramid"}
	var out []string
	for _, k := range order {
		for _, n := range kinds[k] {
			out = append(out, n+" ("+k+")")
		}
	}
	return out
}

func designIdeaNames() []string {
	out := make([]string, 72)
	for i := range out {
		out[i] = fmt.Sprintf("Design Idea %d", i+1)
	}
	return out
}
