// Package reach holds the whole-program reachability check (DESIGN.md
// §10): every function in the module's non-test code must be reached by a
// program, or carry a //dmi:testonly directive that says why it exists.
//
// A dmi-vet analyzer cannot answer "does any program call this?": facts
// flow only from a package to its dependents. So the check is a test. It
// asks `go list -export -deps` for the module and for the perfbench module,
// type-checks every non-test package of both from source against the
// export data of everything else, builds a reference graph from function
// bodies and package-level initializers, and walks it from the roots:
//
//   - main and init of every main package (cmd/*, examples/*, perfbench)
//     and the package-level initializers of every package they link;
//   - every function of a root-only module (perfbench is read, never
//     checked);
//   - the exported functions of the public API package (dmi) and the
//     methods of types it declares;
//   - every method that implements a method of some interface in the
//     program, the standard library's included, since a call through an
//     interface names no concrete method.
//
// A function no root reaches fails the check unless its doc comment
// carries `//dmi:testonly <reason>`; a test-support package may carry the
// directive on its package clause instead.
package reach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis/vetkit"
)

// listed is the part of `go list -json` output the loader reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json ./...` in a module directory.
// Its output is in dependency order: every package follows its imports.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// pkg is one package type-checked from source.
type pkg struct {
	types    *types.Package
	info     *types.Info
	files    []*ast.File
	checked  bool // its functions are checked, not rooted wholesale
	testonly bool // the package clause carries //dmi:testonly
}

// program is every source package of the checked and root-only modules.
type program struct {
	fset  *token.FileSet
	pkgs  []*pkg // dependency order
	byPkg map[*types.Package]*pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the main-module packages of dirs from source. The first
// directory is the checked module; the others are root-only. Every other
// import resolves to the export data go list produced.
func load(dirs ...string) (*program, error) {
	prog := &program{fset: token.NewFileSet(), byPkg: map[*types.Package]*pkg{}}
	exports := map[string]string{}
	bySrc := map[string]*pkg{}
	var order []listed
	checked := map[string]bool{}
	for i, dir := range dirs {
		list, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range list {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Module == nil || !p.Module.Main {
				continue
			}
			if p.Error != nil {
				return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
			}
			if _, dup := checked[p.ImportPath]; !dup {
				checked[p.ImportPath] = i == 0
				order = append(order, p)
			}
		}
	}
	gc := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	for _, l := range order {
		p := &pkg{checked: checked[l.ImportPath], info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range l.GoFiles {
			f, err := parser.ParseFile(prog.fset, filepath.Join(l.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
			if _, ok := directive(f.Doc); ok {
				p.testonly = true
			}
		}
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if src := bySrc[path]; src != nil {
				return src.types, nil
			}
			return gc.Import(path)
		})}
		tp, err := conf.Check(l.ImportPath, prog.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.types = tp
		bySrc[l.ImportPath] = p
		prog.byPkg[tp] = p
		prog.pkgs = append(prog.pkgs, p)
	}
	return prog, nil
}

// directive returns the reason of a //dmi:testonly directive in a comment
// group, and whether the group carries one.
func directive(cg *ast.CommentGroup) (string, bool) {
	if cg != nil {
		for _, c := range cg.List {
			if reason, ok := vetkit.Directive(c, "testonly"); ok {
				return reason, true
			}
		}
	}
	return "", false
}

// refs returns the functions node refers to, generic instances mapped to
// their declarations.
func refs(info *types.Info, node ast.Node) []*types.Func {
	var out []*types.Func
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				out = append(out, fn.Origin())
			}
		}
		return true
	})
	return out
}

// unreached walks the program from its roots (see the package doc) and
// returns one line per checked function no root reaches and no directive
// excuses, plus one per directive without a reason or on a reached
// function, sorted.
func unreached(prog *program, api string) []string {
	type decl struct {
		fd   *ast.FuncDecl
		p    *pkg
		body []*types.Func
	}
	decls := map[*types.Func]*decl{}
	var roots []*types.Func

	// Packages whose initializers run: the import closure of the main
	// packages, the API and the root-only modules.
	linked := map[*types.Package]bool{}
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp] || prog.byPkg[tp] == nil {
			return
		}
		linked[tp] = true
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	for _, p := range prog.pkgs {
		if p.types.Name() == "main" || p.types.Path() == api || !p.checked {
			link(p.types)
		}
	}

	for _, p := range prog.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					decls[fn] = &decl{fd: d, p: p, body: refs(p.info, d)}
					isMain := p.types.Name() == "main" && d.Recv == nil && d.Name.Name == "main"
					isInit := d.Recv == nil && d.Name.Name == "init"
					if !p.checked || isMain || (isInit && linked[p.types]) ||
						(p.types.Path() == api && (d.Recv != nil || fn.Exported())) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && linked[p.types] {
						roots = append(roots, refs(p.info, d)...)
					}
				}
			}
		}
	}
	roots = append(roots, interfaceMethods(prog)...)

	reached := map[*types.Func]bool{}
	for len(roots) > 0 {
		fn := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		if d := decls[fn]; d != nil {
			roots = append(roots, d.body...)
		}
	}

	var out []string
	for fn, d := range decls {
		if !d.p.checked || d.p.testonly {
			continue
		}
		reason, marked := directive(d.fd.Doc)
		pos := prog.fset.Position(d.fd.Name.Pos())
		where := fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, fn.FullName())
		switch {
		case marked && reason == "":
			out = append(out, where+": //dmi:testonly needs a reason")
		case marked && reached[fn]:
			out = append(out, where+": marked //dmi:testonly but a program reaches it")
		case !marked && !reached[fn]:
			out = append(out, where+": no program reaches it")
		}
	}
	sort.Strings(out)
	return out
}

// interfaceMethods returns every method of a source-declared type that
// implements a method of an interface the program can name: a declared
// interface type of any package it imports, the standard library's
// included, or an interface literal in its source. Methods of generic
// types are matched by name alone, an over-approximation.
func interfaceMethods(prog *program) []*types.Func {
	ifaces := map[*types.Interface]bool{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
	}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[it] = true
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(tp *types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams() == nil {
					addIface(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	var named []*types.Named
	for _, p := range prog.pkgs {
		scan(p.types)
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}

	names := map[string]bool{}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}
	var out []*types.Func
	for _, n := range named {
		if n.TypeParams() != nil {
			for i := 0; i < n.NumMethods(); i++ {
				if names[n.Method(i).Name()] {
					out = append(out, n.Method(i))
				}
			}
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
	ifaceLoop:
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); mset.Lookup(m.Pkg(), m.Name()) == nil {
					continue ifaceLoop
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					out = append(out, fn.Origin())
				}
			}
		}
	}
	return out
}

// moduleRoot is the checked module's root: three levels above this
// package's directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	return dir
}

// TestEveryFunctionReached is the check: every non-test function of the
// module is reached by a program, or says why not.
func TestEveryFunctionReached(t *testing.T) {
	root := moduleRoot(t)
	start := time.Now()
	prog, err := load(root, filepath.Join(root, "perfbench"))
	if err != nil {
		t.Fatal(err)
	}
	loaded := time.Now()
	bad := unreached(prog, "repro/dmi")
	t.Logf("loaded %d packages in %v, walked in %v", len(prog.pkgs), loaded.Sub(start), time.Since(loaded))
	for _, line := range bad {
		t.Errorf("%s", strings.TrimPrefix(line, root+string(filepath.Separator)))
	}
	if len(bad) > 0 {
		t.Log("delete each, move it into a _test.go file, or mark it //dmi:testonly <reason> (DESIGN.md §10)")
	}
}

// TestCheckerFixture runs the check on a fixture module under testdata: it
// must report the planted unreachable function and nothing else, so a
// directive, an interface call, a package-level initializer and a root-only
// module each keep their function reached.
func TestCheckerFixture(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := load(dir, filepath.Join(dir, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	got := unreached(prog, "fixture/api")
	lib := filepath.Join(dir, "lib", "lib.go")
	src, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	line := 1 + bytes.Count(src[:bytes.Index(src, []byte("func Planted"))], []byte("\n"))
	want := []string{fmt.Sprintf("%s:%d: fixture/lib.Planted: no program reaches it", lib, line)}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
