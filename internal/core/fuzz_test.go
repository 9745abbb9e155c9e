package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
	"repro/internal/ung"
)

// declaredCodes returns the ErrorCode constants declared in errors.go, read
// from the source so a new code needs no second list here.
func declaredCodes(tb testing.TB) map[ErrorCode]bool {
	tb.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	codes := map[ErrorCode]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if typ, ok := spec.Type.(*ast.Ident); !ok || typ.Name != "ErrorCode" {
			return true
		}
		for _, v := range spec.Values {
			lit, ok := v.(*ast.BasicLit)
			if !ok {
				tb.Fatalf("ErrorCode constant %s is not a string literal", spec.Names[0])
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				tb.Fatal(err)
			}
			codes[ErrorCode(s)] = true
		}
		return true
	})
	if len(codes) == 0 {
		tb.Fatal("no ErrorCode constants found in errors.go")
	}
	return codes
}

// FuzzVisitCommands drives the raw-LLM input path — ParseCommands, then
// Session.Visit on a fresh PowerPoint instance — with arbitrary bytes. Visit
// must never panic; res.Err must be nil exactly when every executed command
// succeeded, and otherwise be the last executed command's error or, with
// nothing executed, the mixed-query or further_query error; and every
// StepError must carry a code declared in errors.go. The committed corpus
// under testdata/fuzz/FuzzVisitCommands is replayed by plain `go test`.
func FuzzVisitCommands(f *testing.F) {
	g, _, err := ung.Rip(slides.New(12).App, ung.Config{})
	if err != nil {
		f.Fatal(err)
	}
	fo, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		f.Fatal(err)
	}
	m := describe.NewModel(fo)
	codes := declaredCodes(f)

	f.Add([]byte(`[{"id":1},{"shortcut_key":"ENTER"}]`))
	f.Add([]byte(`[{"id":2,"text":"hello"}]`))
	f.Add([]byte(`[{"further_query":[-1]}]`))
	f.Add([]byte(`[{"further_query":[1]},{"id":1}]`))
	f.Add([]byte(`[{"id":999999}]`))
	f.Add([]byte(`[{}]`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cmds, err := ParseCommands(data)
		if err != nil {
			return // malformed payloads are rejected before any session work
		}
		res := NewSession(slides.New(12).App, m, Options{}).Visit(cmds)

		checkCode := func(e *StepError) {
			if e != nil && !codes[e.Code] {
				t.Errorf("undeclared error code %q: %v", e.Code, e)
			}
		}
		checkCode(res.Err)
		for i, cr := range res.Executed {
			checkCode(cr.Err)
			if cr.Err != nil && i != len(res.Executed)-1 {
				t.Fatalf("command %d failed (%v) but execution continued", i, cr.Err)
			}
		}

		if n := len(res.Executed); n > 0 {
			if last := res.Executed[n-1].Err; res.Err != last {
				t.Fatalf("res.Err = %v, last executed command's error = %v", res.Err, last)
			}
			return
		}
		if res.Err == nil {
			return
		}
		query := false
		for _, c := range cmds {
			query = query || c.Kind() == KindFurtherQuery
		}
		switch {
		case !query:
			t.Fatalf("nothing executed, yet res.Err = %v", res.Err)
		case len(cmds) != 1 && res.Err.Code != ErrMixedQuery:
			t.Fatalf("mixed further_query call failed with %v, want %s", res.Err, ErrMixedQuery)
		case len(cmds) == 1 && res.Err.Code != ErrUnknownID:
			t.Fatalf("further_query failed with %v, want %s", res.Err, ErrUnknownID)
		}
	})
}

// FuzzDeclare drives Session.Declare with random declarations against the
// catalog's Word app, its Page Setup dialog open over the Home tab: one
// screen with Text, Scroll, RangeValue, Toggle and ExpandCollapse controls
// and a single-select radio group. op picks a row of the op table (one past
// the last is an unknown op); each byte of targets picks a label by screen
// index (one past the last control is a label not on the screen). Declare
// must never panic, every StepError must carry a code declared in
// errors.go, and a declaration that fails must leave the screen as it was
// (no partial execution). The committed corpus under
// testdata/fuzz/FuzzDeclare is replayed by plain `go test`.
func FuzzDeclare(f *testing.F) {
	codes := declaredCodes(f)
	ops := make([]string, 0, len(stateOps)+1)
	for op := range stateOps {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	ops = append(ops, "set_scrollbar_pos") // the paper's name, not a row

	f.Fuzz(func(t *testing.T, op uint8, targets []byte, h, v float64, start, end int, on bool, value float64) {
		s := declareSession(t)
		lm := s.CaptureLabels()
		if len(targets) > 4 {
			targets = targets[:4]
		}
		d := Declaration{Op: ops[int(op)%len(ops)], Labels: []string{},
			H: h, V: v, Start: start, End: end, On: on, Value: value}
		for _, b := range targets {
			d.Labels = append(d.Labels, alphaLabel(int(b)%(lm.Len()+1)))
		}

		before := screenState(s)
		serr := s.Declare(lm, d)
		if serr == nil {
			return
		}
		if !codes[serr.Code] {
			t.Errorf("undeclared error code %q: %v", serr.Code, serr)
		}
		if after := screenState(s); after != before {
			t.Fatalf("failed declaration %+v (%v) changed the screen:\n%s", d, serr, lineDiff(before, after))
		}
	})
}

// declareSession opens the FuzzDeclare screen on a fresh Word instance.
func declareSession(tb testing.TB) *Session {
	tb.Helper()
	w := word.New()
	for _, id := range []string{"tabLayout", "btnPageSetupDialog", "tabHome"} {
		if err := w.Desk.Click(w.Win.FindByAutomationID(id)); err != nil {
			tb.Fatalf("click %s: %v", id, err)
		}
	}
	return NewSession(w.App, nil, Options{})
}

// screenState renders what a failed declaration must leave unchanged: each
// on-screen control's id, name and value, and its toggle, selection,
// scroll, expand and range states.
func screenState(s *Session) string {
	var b strings.Builder
	for _, e := range s.CaptureLabels().order {
		fmt.Fprintf(&b, "%s %q", e.ControlID(), e.Name())
		if text, ok := contentOf(e); ok {
			fmt.Fprintf(&b, " value=%q", text)
		}
		if tg, ok := e.Pattern(uia.TogglePattern).(uia.Toggler); ok {
			fmt.Fprintf(&b, " toggle=%d", tg.ToggleState(e))
		}
		if si, ok := e.Pattern(uia.SelectionItemPattern).(uia.SelectionItem); ok {
			fmt.Fprintf(&b, " selected=%v", si.IsSelected(e))
		}
		if tx, ok := e.Pattern(uia.TextPattern).(uia.Texter); ok {
			start, end, sel := tx.Selection(e)
			fmt.Fprintf(&b, " text-selection=%d..%d/%v", start, end, sel)
		}
		if sc, ok := e.Pattern(uia.ScrollPattern).(uia.Scroller); ok {
			h, v := sc.ScrollPercent(e)
			fmt.Fprintf(&b, " scroll=%v,%v", h, v)
		}
		if xc, ok := e.Pattern(uia.ExpandCollapsePattern).(uia.ExpandCollapser); ok {
			fmt.Fprintf(&b, " expand=%s", xc.ExpandState(e))
		}
		if rv, ok := e.Pattern(uia.RangeValuePattern).(uia.RangeValuer); ok {
			fmt.Fprintf(&b, " range=%v", rv.RangeValue(e))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// lineDiff lists the lines of two renderings that differ.
func lineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	var out strings.Builder
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			fmt.Fprintf(&out, "- %s\n+ %s\n", x, y)
		}
	}
	return out.String()
}
