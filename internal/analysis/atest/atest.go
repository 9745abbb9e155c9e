// Package atest is a self-contained analysistest: it loads fixture
// packages from a testdata/src GOPATH-style layout, runs an analyzer (and
// its Requires closure) over them, and checks the reported diagnostics
// against analysistest's `// want "regexp"` expectation comments.
//
// It exists because the full golang.org/x/tools/go/analysis/analysistest
// depends on go/packages, which is not part of the vendored x/tools subset
// this repo builds against (third_party/README.md). The fixture format is
// analysistest's, so fixtures port verbatim if the full module ever lands:
//
//	for k := range m { // want `range over map`
//
// Each `// want` comment carries one or more quoted or backquoted regular
// expressions; every regexp must match a diagnostic reported on that
// comment's line, every diagnostic must be matched by some expectation, and
// anything else fails the test.
//
// Fixture packages may import each other and the standard library; imports
// resolve first against the fixture tree (so stubs can stand in for real
// repo packages under their real import paths) and then via the go/types
// source importer.
//
//dmi:testonly test support: the analyzers' fixture tests are its only callers
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory (go test runs with the package directory as cwd).
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("atest: %v", err)
	}
	return dir
}

// Run loads each fixture package (an import path under testdata/src), runs
// the analyzer over it, and checks diagnostics against the fixture's
// // want expectations.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	if err := analysis.Validate([]*analysis.Analyzer{a}); err != nil {
		t.Fatalf("atest: invalid analyzer: %v", err)
	}
	ld := newLoader(filepath.Join(testdata, "src"))
	for _, path := range paths {
		t.Run(strings.ReplaceAll(path, "/", "_"), func(t *testing.T) {
			pkg, err := ld.load(path)
			if err != nil {
				t.Fatalf("atest: loading %s: %v", path, err)
			}
			diags := runAnalyzer(t, a, ld, pkg)
			checkExpectations(t, ld.fset, pkg.files, diags)
		})
	}
}

// loadedPkg is one typechecked fixture package.
type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// loader typechecks fixture packages, resolving fixture-tree imports
// itself and delegating the rest to the source importer.
type loader struct {
	srcdir string
	fset   *token.FileSet
	std    types.Importer
	cache  map[string]*loadedPkg
}

func newLoader(srcdir string) *loader {
	fset := token.NewFileSet()
	return &loader{
		srcdir: srcdir,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		cache:  make(map[string]*loadedPkg),
	}
}

// Import implements types.Importer over the fixture tree + stdlib chain.
func (ld *loader) Import(path string) (*types.Package, error) {
	if dir := filepath.Join(ld.srcdir, filepath.FromSlash(path)); dirExists(dir) {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return ld.std.Import(path)
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}

// load parses and typechecks the fixture package at the import path.
func (ld *loader) load(path string) (*loadedPkg, error) {
	if p, ok := ld.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(ld.srcdir, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, info: info, files: files}
	ld.cache[path] = p
	return p, nil
}

// runAnalyzer executes the analyzer's Requires closure in dependency order
// and returns the target analyzer's diagnostics.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, ld *loader, pkg *loadedPkg) []analysis.Diagnostic {
	t.Helper()
	var diags []analysis.Diagnostic
	results := make(map[*analysis.Analyzer]interface{})
	var exec func(an *analysis.Analyzer)
	exec = func(an *analysis.Analyzer) {
		if _, done := results[an]; done {
			return
		}
		for _, req := range an.Requires {
			exec(req)
		}
		pass := &analysis.Pass{
			Analyzer:   an,
			Fset:       ld.fset,
			Files:      pkg.files,
			Pkg:        pkg.pkg,
			TypesInfo:  pkg.info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   results,
			ReadFile:   os.ReadFile,
			Report: func(d analysis.Diagnostic) {
				if an == a {
					diags = append(diags, d)
				}
			},
		}
		res, err := an.Run(pass)
		if err != nil {
			t.Fatalf("atest: analyzer %s: %v", an.Name, err)
		}
		results[an] = res
	}
	exec(a)
	return diags
}

// wantRE extracts the quoted/backquoted regexps of a // want comment.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// checkExpectations matches diagnostics against // want comments by
// (file, line), analysistest-style.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 || strings.TrimSpace(text[:idx]) != "" {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
					expr := m[1]
					if m[2] != "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("atest: %s: bad want regexp %q: %v", pos, expr, err)
					}
					wants[k] = append(wants[k], re)
				}
				if len(wants[k]) == 0 {
					t.Fatalf("atest: %s: want comment with no regexp", pos)
				}
			}
		}
	}
	got := make(map[key][]string)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d.Message)
	}
	for k, res := range wants {
		msgs := got[k]
		for _, re := range res {
			matched := -1
			for i, m := range msgs {
				if re.MatchString(m) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q (got %q)", k.file, k.line, re, msgs)
				continue
			}
			msgs = append(msgs[:matched], msgs[matched+1:]...)
		}
		if len(msgs) > 0 {
			t.Errorf("%s:%d: unexpected diagnostics beyond the want set: %q", k.file, k.line, msgs)
		}
		delete(got, k)
	}
	for k, msgs := range got {
		t.Errorf("%s:%d: unexpected diagnostics: %q", k.file, k.line, msgs)
	}
}
