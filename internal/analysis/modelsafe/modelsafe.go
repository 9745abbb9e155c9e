// Package modelsafe implements the dmi-vet analyzer that mechanizes the two
// sharing contracts of the warm-serving tier (DESIGN.md §6, §8):
//
// Models are read-only. A describe.Model — and the forest.Forest,
// forest.Node, ung.Graph, and ung.Node values it is built from — is frozen
// once construction returns. Any number of concurrent sessions plan over
// the same warm model simultaneously (bench.RunDispatchedIn, the dmi-serve
// daemon), so a write to any reachable field or map of a model outside its
// defining package is a data race against every other session, whether or
// not -race happens to catch it on a given run. The analyzer flags
// assignments (including op-assigns, ++/--, and map element stores) whose
// target chain passes through one of the protected types from outside the
// type's own package, element stores into the edge lists the graph hands
// out (g.Out(i)[k] = x: Graph.Out and Graph.In return windows of its one
// edge buffer), plus calls to the graph's construction-time mutators
// (Graph.AddNode, Graph.AddEdge) from outside internal/ung.
//
// Sessions are single-goroutine. A core.Session mutates its own window and
// observation state with no locking; its contract is that one goroutine
// owns it for its whole life. The analyzer flags go statements whose
// launched function captures or is passed a core.Session from the enclosing
// scope — handing a live session to another goroutine is the bug, however
// it is smuggled. A session created inside the launched function itself is
// fine: that goroutine is the owner.
//
// The check is syntactic per package: aliasing a protected map into a local
// variable and writing through the alias escapes it. That gap is accepted —
// the analyzer is a tripwire for the honest mistake, the -race equivalence
// suite remains the backstop for the devious one. _test.go files are exempt
// from the write and mutator rules (tests build their own graph/forest
// fixtures by construction) but not from the session-goroutine rule.
package modelsafe

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/vetkit"
)

// protected maps defining package path → type names frozen after
// construction. Writes through these types are allowed only inside the
// defining package.
var protected = map[string][]string{
	"repro/internal/describe": {"Model"},
	"repro/internal/forest":   {"Forest", "Node"},
	"repro/internal/ung":      {"Graph", "Node"},
}

// mutators lists construction-time methods of protected types that mutate
// the receiver; calling them outside the defining package re-opens a frozen
// value.
var mutators = map[string]map[string]bool{
	"repro/internal/ung": {"AddNode": true, "AddEdge": true},
}

// views lists methods of protected types whose result aliases the
// receiver's storage, so a store into the result writes the frozen value.
var views = map[string]map[string]bool{
	"repro/internal/ung": {"Out": true, "In": true},
}

// sessionPkg/sessionType name the single-goroutine session executor.
const (
	sessionPkg  = "repro/internal/core"
	sessionType = "Session"
)

var Analyzer = &analysis.Analyzer{
	Name: "modelsafe",
	Doc: "flag writes to frozen model structures outside their defining packages and sessions leaked across goroutines\n\n" +
		"describe.Model and the ung/forest structures under it are read-only once built\n" +
		"(concurrent sessions share them); core.Session is owned by one goroutine for life.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{
		(*ast.AssignStmt)(nil),
		(*ast.IncDecStmt)(nil),
		(*ast.CallExpr)(nil),
		(*ast.GoStmt)(nil),
	}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if vetkit.IsTestFile(pass, n.Pos()) {
				return // tests build their own graph/forest fixtures
			}
			for _, l := range n.Lhs {
				checkWrite(pass, l)
			}
		case *ast.IncDecStmt:
			if vetkit.IsTestFile(pass, n.Pos()) {
				return
			}
			checkWrite(pass, n.X)
		case *ast.CallExpr:
			if vetkit.IsTestFile(pass, n.Pos()) {
				return
			}
			checkMutatorCall(pass, n)
		case *ast.GoStmt:
			// The single-goroutine session rule holds in tests too: a test
			// that leaks a session across goroutines races for real.
			checkGoCapture(pass, n)
		}
	})
	return nil, nil
}

// checkWrite flags a store whose target chain passes through a protected
// type defined in another package. The chain walk covers field stores
// (m.Forest = x), element stores (g.Nodes[i].Name = s), stores through
// nested selections (model.Forest.Main.Children[0].Name = x), stores
// through a call's protected result (m.Node(i).Name = x), and element
// stores into a view method's result (g.Out(i)[k] = x).
func checkWrite(pass *analysis.Pass, lhs ast.Expr) {
	e := ast.Unparen(lhs)
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		case *ast.StarExpr:
			inner = x.X
		default:
			return
		}
		inner = ast.Unparen(inner)
		if call, ok := inner.(*ast.CallExpr); ok {
			if pkg, typ, method, ok := viewCall(pass, call); ok {
				pass.Reportf(lhs.Pos(), "write to %s.%s(...)%s outside %s: models are read-only once built (concurrent sessions share them)",
					typ, method, strings.TrimPrefix(exprSel(e), "?"), pkg)
				return
			}
		}
		if pkg, name, ok := protectedVia(pass, inner); ok {
			pass.Reportf(lhs.Pos(), "write to %s.%s outside %s: models are read-only once built (concurrent sessions share them)", name, exprSel(e), pkg)
			return
		}
		e = inner
	}
}

// protectedVia reports whether e's type resolves to a protected named type
// defined outside the current package, returning the defining package and
// type name.
func protectedVia(pass *analysis.Pass, e ast.Expr) (pkg, name string, ok bool) {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return "", "", false
	}
	named := vetkit.NamedType(t)
	if named == nil || named.Obj() == nil || named.Obj().Pkg() == nil {
		return "", "", false
	}
	defPkg := named.Obj().Pkg().Path()
	for p, names := range protected {
		if !vetkit.SamePackage(named.Obj().Pkg(), p) {
			continue
		}
		for _, n := range names {
			if named.Obj().Name() == n && !vetkit.SamePackage(pass.Pkg, p) {
				return defPkg, n, true
			}
		}
	}
	return "", "", false
}

// exprSel names the field or element being written, for the diagnostic.
func exprSel(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return exprSel(ast.Unparen(x.X)) + "[...]"
	case *ast.StarExpr:
		return exprSel(ast.Unparen(x.X))
	}
	return "?"
}

// viewCall reports whether call invokes a view method of a protected type
// defined outside the current package, returning the defining package,
// the type and the method.
func viewCall(pass *analysis.Pass, call *ast.CallExpr) (pkg, typ, method string, ok bool) {
	fn, isFn := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !isFn || fn.Pkg() == nil {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	for p, names := range views {
		if names[fn.Name()] && vetkit.SamePackage(fn.Pkg(), p) && !vetkit.SamePackage(pass.Pkg, p) {
			if named := vetkit.NamedType(sig.Recv().Type()); named != nil {
				return fn.Pkg().Path(), named.Obj().Name(), fn.Name(), true
			}
		}
	}
	return "", "", "", false
}

// checkMutatorCall flags construction-time mutator methods invoked on
// protected types from outside their defining package.
func checkMutatorCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	for pkg, names := range mutators {
		if names[fn.Name()] && vetkit.SamePackage(fn.Pkg(), pkg) && !vetkit.SamePackage(pass.Pkg, pkg) {
			pass.Reportf(call.Pos(), "%s mutates a frozen graph outside %s: models are read-only once built", fn.Name(), pkg)
		}
	}
}

// checkGoCapture flags go statements that hand a core.Session from the
// enclosing scope to the launched goroutine, whether captured by the
// closure, passed as an argument, or used as the method receiver.
func checkGoCapture(pass *analysis.Pass, g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pos() == 0 {
			return true
		}
		if !vetkit.TypeIs(obj.Type(), sessionPkg, sessionType) {
			return true
		}
		// Declared inside the launched expression → that goroutine owns it.
		if obj.Pos() >= g.Pos() && obj.Pos() < g.End() {
			return true
		}
		pass.Reportf(id.Pos(), "session %s crosses a goroutine boundary: core.Session is single-goroutine for its whole life (create the session inside the goroutine that runs it)", id.Name)
		return true
	})
}
