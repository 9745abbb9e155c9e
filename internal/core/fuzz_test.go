package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/office/slides"
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
