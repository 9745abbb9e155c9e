package osworld

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
)

// Apps lists the application names tasks may target, in catalog order. The
// per-app env builders behind these names — factory, setup-op interpreter,
// state-probe vocabulary — are the only compiled-in part of a task; all
// other task content is data (internal/taskpack).
func Apps() []string {
	return []string{"Word", "Excel", "PowerPoint", "Settings", "Files"}
}

// Build constructs the task's live environment: a fresh application with
// the setup ops applied and the verify condition bound. The compiled-in
// grid is exhaustively tested and loaded packs are validated before they
// run, so a build failure here is a programming bug, and Build panics the
// way the old closure-based builders did on impossible state.
func (t Task) Build() *Env {
	env, err := t.BuildEnv()
	if err != nil {
		panic(fmt.Sprintf("osworld: build %s: %v", t.ID, err))
	}
	return env
}

// BuildEnv is Build with the error surfaced, for validators that must
// reject a bad task instead of crashing.
func (t Task) BuildEnv() (*Env, error) {
	var (
		env *Env
		err error
	)
	switch t.App {
	case "Word":
		env, err = wordEnv(t.Setup)
	case "Excel":
		env, err = excelEnv(t.Setup)
	case "PowerPoint":
		env, err = slidesEnv(t.Setup)
	case "Settings":
		env, err = settingsEnv(t.Setup)
	case "Files":
		env, err = filesEnv(t.Setup)
	default:
		return nil, fmt.Errorf("unknown application %q", t.App)
	}
	if err != nil {
		return nil, err
	}
	env.bind(t)
	return env, nil
}

// bind points env at t: its application kind, expected answer and verify
// condition, with no answer recorded yet.
func (e *Env) bind(t Task) {
	e.Kind = t.App
	e.Expected = t.Expected
	e.verify = t.Verify
	e.Answer = ""
}

// Check builds a fresh environment and evaluates the verify condition once,
// surfacing unknown setup ops, unknown condition ops, and paths outside the
// application's probe vocabulary — the semantic half of pack validation.
func (t Task) Check() error {
	env, err := t.BuildEnv()
	if err != nil {
		return err
	}
	if _, err := t.Verify.Eval(env); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// errPath reports a path outside an application's probe vocabulary.
func errPath(app, path string) error {
	return fmt.Errorf("unknown %s state path %q", app, path)
}

// errSetup reports a setup op an application's builder does not interpret.
func errSetup(app string, op SetupOp) error {
	return fmt.Errorf("setup op %q not supported by %s", op.Op, app)
}

// Word -------------------------------------------------------------------------

// wordParagraphs interprets Word's setup: the paragraphs to seed.
func wordParagraphs(setup []SetupOp) ([]string, error) {
	var texts []string
	for _, op := range setup {
		if op.Op != SetupWordParagraphs {
			return nil, errSetup("Word", op)
		}
		texts = op.Texts
	}
	return texts, nil
}

func wordEnv(setup []SetupOp) (*Env, error) {
	texts, err := wordParagraphs(setup)
	if err != nil {
		return nil, err
	}
	w := word.New(texts...)
	reset := func(setup []SetupOp) error {
		texts, err := wordParagraphs(setup)
		if err != nil {
			return err
		}
		w.Reset(texts...)
		return nil
	}
	probe := func(path string) (any, error) {
		switch path {
		case "orientation":
			return w.Doc.Orientation, nil
		case "saved":
			return w.Doc.Saved, nil
		case "header":
			return w.Doc.Header, nil
		case "sel-start":
			return float64(w.Doc.SelStart), nil
		case "sel-end":
			return float64(w.Doc.SelEnd), nil
		case "table.last.rows", "table.last.cols":
			tbl, ok := w.Doc.LastTable()
			if !ok {
				return nil, nil
			}
			if strings.HasSuffix(path, "rows") {
				return float64(tbl.Rows), nil
			}
			return float64(tbl.Cols), nil
		}
		if text, ok := strings.CutPrefix(path, "occurrences."); ok {
			return float64(w.Doc.CountOccurrences(text)), nil
		}
		if rest, ok := strings.CutPrefix(path, "para."); ok {
			idx, prop, found := strings.Cut(rest, ".")
			n, err := strconv.Atoi(idx)
			if !found || err != nil || n < 1 {
				return nil, errPath("Word", path)
			}
			if n > len(w.Doc.Paras) {
				return nil, nil
			}
			p := w.Doc.Paras[n-1]
			switch prop {
			case "font-color":
				return p.FontColor, nil
			case "underline":
				return p.Underline, nil
			case "underline-color":
				return p.UnderlineColor, nil
			case "bold":
				return p.Bold, nil
			case "line-spacing":
				return p.LineSpacing, nil
			}
		}
		return nil, errPath("Word", path)
	}
	return &Env{App: w.App, probe: probe, reset: reset}, nil
}

// Excel ------------------------------------------------------------------------

// setCells applies Excel's setup: cell values written into the sheet.
func setCells(x *excel.App, setup []SetupOp) error {
	for _, op := range setup {
		if op.Op != SetupExcelSetCell {
			return errSetup("Excel", op)
		}
		v, ok := op.Value.(string)
		if !ok {
			return fmt.Errorf("setup op %q: cell value must be a string, got %T", op.Op, op.Value)
		}
		if _, _, ok := excel.ParseRef(op.Ref); !ok {
			return fmt.Errorf("setup op %q: invalid cell ref %q", op.Op, op.Ref)
		}
		x.Sheet.SetValue(op.Ref, v)
	}
	return nil
}

func excelEnv(setup []SetupOp) (*Env, error) {
	x := excel.New()
	if err := setCells(x, setup); err != nil {
		return nil, err
	}
	reset := func(setup []SetupOp) error {
		x.Reset()
		return setCells(x, setup)
	}
	probe := func(path string) (any, error) {
		switch path {
		case "frozen-top-row":
			return x.Sheet.FrozenTopRow, nil
		case "frozen-first-col":
			return x.Sheet.FrozenFirstCol, nil
		case "used-rows":
			return float64(x.Sheet.UsedRows()), nil
		case "cond-rules":
			return float64(len(x.Sheet.CondRules)), nil
		case "sel-from":
			return x.Sheet.SelFrom, nil
		case "sel-to":
			return x.Sheet.SelTo, nil
		}
		if kind, ok := strings.CutPrefix(path, "charts."); ok {
			for _, c := range x.Sheet.Charts {
				if c == kind {
					return true, nil
				}
			}
			return false, nil
		}
		if col, ok := strings.CutPrefix(path, "col-width."); ok {
			return x.Sheet.ColWidth[col], nil
		}
		if rest, ok := strings.CutPrefix(path, "cell."); ok {
			ref, prop, found := strings.Cut(rest, ".")
			if !found {
				return nil, errPath("Excel", path)
			}
			c := x.Sheet.Cell(ref)
			if c == nil {
				return nil, errPath("Excel", path)
			}
			switch prop {
			case "value":
				return c.Value, nil
			case "format":
				return c.Format, nil
			case "fill":
				return c.Fill, nil
			case "font-color":
				return c.FontColor, nil
			case "bold":
				return c.Bold, nil
			}
		}
		return nil, errPath("Excel", path)
	}
	return &Env{App: x.App, probe: probe, reset: reset}, nil
}

// PowerPoint -------------------------------------------------------------------

// maxDeckSlides bounds declarative deck sizes (a real deck is far smaller;
// this only guards pack validation against allocation abuse).
const maxDeckSlides = 500

// deckSize interprets PowerPoint's setup: the number of slides.
func deckSize(setup []SetupOp) (int, error) {
	count := 0 // slides.New treats <= 0 as the default deck
	for _, op := range setup {
		if op.Op != SetupSlidesDeck {
			return 0, errSetup("PowerPoint", op)
		}
		// Bound the deck so validating an untrusted pack cannot allocate an
		// absurd number of slides.
		if op.Count < 0 || op.Count > maxDeckSlides {
			return 0, fmt.Errorf("setup op %q: deck size %d outside [0,%d]", op.Op, op.Count, maxDeckSlides)
		}
		count = op.Count
	}
	return count, nil
}

func slidesEnv(setup []SetupOp) (*Env, error) {
	count, err := deckSize(setup)
	if err != nil {
		return nil, err
	}
	p := slides.New(count)
	reset := func(setup []SetupOp) error {
		count, err := deckSize(setup)
		if err != nil {
			return err
		}
		p.Reset(count)
		return nil
	}
	probe := func(path string) (any, error) {
		switch path {
		case "slide-count":
			return float64(len(p.Deck.Slides)), nil
		case "current-slide.layout":
			return p.Deck.CurrentSlide().Layout, nil
		case "slide-size":
			return p.Deck.SlideSize, nil
		case "picture-border":
			return p.PictureBorder, nil
		case "thumb-top":
			return float64(p.ThumbTop()), nil
		}
		if color, ok := strings.CutPrefix(path, "all-backgrounds."); ok {
			return p.Deck.AllBackgrounds(color), nil
		}
		if tr, ok := strings.CutPrefix(path, "all-transitions."); ok {
			return p.Deck.AllTransitions(tr), nil
		}
		if name, ok := strings.CutPrefix(path, "context."); ok {
			return p.ContextActive(name), nil
		}
		if rest, ok := strings.CutPrefix(path, "slide."); ok {
			idx, prop, found := strings.Cut(rest, ".")
			n, err := strconv.Atoi(idx)
			if !found || err != nil || n < 1 {
				return nil, errPath("PowerPoint", path)
			}
			if n > len(p.Deck.Slides) {
				return nil, nil
			}
			s := p.Deck.Slides[n-1]
			switch prop {
			case "hidden":
				return s.Hidden, nil
			case "layout":
				return s.Layout, nil
			case "background":
				return s.Background, nil
			case "transition":
				return s.Transition, nil
			case "title.text", "title.font-size":
				t := s.Title()
				if t == nil {
					return nil, nil
				}
				if prop == "title.text" {
					return t.Text, nil
				}
				return t.FontSize, nil
			}
		}
		return nil, errPath("PowerPoint", path)
	}
	return &Env{App: p.App, probe: probe, reset: reset}, nil
}

// Settings ---------------------------------------------------------------------

// setSettings applies Settings' setup: field values.
func setSettings(s *settings.App, setup []SetupOp) error {
	for _, op := range setup {
		if op.Op != SetupSettingsSet {
			return errSetup("Settings", op)
		}
		if err := setSettingsField(s.State, op); err != nil {
			return err
		}
	}
	return nil
}

func settingsEnv(setup []SetupOp) (*Env, error) {
	s := settings.New()
	if err := setSettings(s, setup); err != nil {
		return nil, err
	}
	reset := func(setup []SetupOp) error {
		s.Reset()
		return setSettings(s, setup)
	}
	probe := func(path string) (any, error) {
		st := s.State
		switch path {
		case "state.brightness":
			return st.Brightness, nil
		case "state.volume":
			return st.Volume, nil
		case "state.night-light":
			return st.NightLight, nil
		case "state.theme":
			return st.Theme, nil
		case "state.accent-color":
			return st.AccentColor, nil
		case "state.background-color":
			return st.BackgroundColor, nil
		case "state.wifi":
			return st.WiFi, nil
		case "state.vpn":
			return st.VPN, nil
		case "state.proxy-on":
			return st.ProxyOn, nil
		case "state.proxy-server":
			return st.ProxyServer, nil
		case "state.network-resets":
			return float64(st.NetworkResets), nil
		case "state.auto-time-zone":
			return st.AutoTimeZone, nil
		case "state.time-zone":
			return st.TimeZone, nil
		}
		return nil, errPath("Settings", path)
	}
	return &Env{App: s.App, probe: probe, reset: reset}, nil
}

// setSettingsField applies one settings-set op; the field vocabulary covers
// the network panel the grid's setup needs.
func setSettingsField(st *settings.State, op SetupOp) error {
	setBool := func(dst *bool) error {
		v, ok := op.Value.(bool)
		if !ok {
			return fmt.Errorf("setup op %q: field %q takes a bool, got %T", op.Op, op.Path, op.Value)
		}
		*dst = v
		return nil
	}
	switch op.Path {
	case "vpn":
		return setBool(&st.VPN)
	case "proxy-on":
		return setBool(&st.ProxyOn)
	case "wifi":
		return setBool(&st.WiFi)
	case "night-light":
		return setBool(&st.NightLight)
	case "proxy-server":
		v, ok := op.Value.(string)
		if !ok {
			return fmt.Errorf("setup op %q: field %q takes a string, got %T", op.Op, op.Path, op.Value)
		}
		st.ProxyServer = v
		return nil
	}
	return fmt.Errorf("setup op %q: unknown settings field %q", op.Op, op.Path)
}

// Files ------------------------------------------------------------------------

// noFilesSetup refuses any setup op: Files starts from its factory state.
func noFilesSetup(setup []SetupOp) error {
	if len(setup) > 0 {
		return errSetup("Files", setup[0])
	}
	return nil
}

func filesEnv(setup []SetupOp) (*Env, error) {
	if err := noFilesSetup(setup); err != nil {
		return nil, err
	}
	f := filemgr.New()
	reset := func(setup []SetupOp) error {
		f.Reset()
		return noFilesSetup(setup)
	}
	probe := func(path string) (any, error) {
		switch path {
		case "current":
			return f.Current, nil
		case "show-hidden":
			return f.ShowHidden, nil
		case "view-top":
			return float64(f.ViewTop()), nil
		case "text-clipboard":
			return f.FS.TextClipboard, nil
		case "preview-name":
			if p := f.PreviewOf(); p != nil {
				return p.Name, nil
			}
			return "", nil
		}
		if rest, ok := strings.CutPrefix(path, "has."); ok {
			folder, name, found := strings.Cut(rest, ".")
			if !found {
				return nil, errPath("Files", path)
			}
			return f.FS.Has(folder, name), nil
		}
		if name, ok := strings.CutPrefix(path, "trashed."); ok {
			return f.FS.Trashed(name), nil
		}
		return nil, errPath("Files", path)
	}
	return &Env{App: f.App, probe: probe, reset: reset}, nil
}
