// Package vetkit carries the small helpers the dmi-vet analyzers share:
// package-scope matching, test-file detection, and the //dmi:... directive
// comment scanner. The analyzers (maporder, purity, modelsafe, wiredrift)
// each police one repo-wide invariant in a specific set of packages; vetkit
// is where "which packages" and "which lines are annotated" are decided, so
// the four analyzers stay single-purpose.
package vetkit

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// normalizePkgPath strips the suffixes drivers append to test variants of a
// package, so scope checks treat "repro/internal/bench_test",
// "repro/internal/bench.test", and "repro/internal/bench" as one package.
func normalizePkgPath(path string) string {
	path = strings.TrimSuffix(path, "_test")
	path = strings.TrimSuffix(path, ".test")
	return path
}

// InScope reports whether the package path is one of the listed package
// paths (exact match after test-variant normalization). Scopes are explicit
// package lists, not prefixes: an analyzer's contract names the packages it
// governs, and new packages opt in by being added to the list.
func InScope(pkgPath string, scope []string) bool {
	pkgPath = normalizePkgPath(pkgPath)
	for _, s := range scope {
		if pkgPath == s {
			return true
		}
	}
	return false
}

// SamePackage reports whether pkg (a types.Package, possibly a test
// variant) is the package named by path.
func SamePackage(pkg *types.Package, path string) bool {
	return pkg != nil && normalizePkgPath(pkg.Path()) == path
}

// IsTestFile reports whether the node's position lies in a _test.go file.
func IsTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// DirectiveLines collects, per filename, the set of lines carrying a
// //dmi:<name> directive comment. Like //go: directives, the marker must
// immediately follow the comment slashes; free text may follow after a
// space or colon (the justification the annotation grammar asks for).
func DirectiveLines(pass *analysis.Pass, name string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if _, ok := Directive(c, name); ok {
					p := pass.Fset.Position(c.Pos())
					if out[p.Filename] == nil {
						out[p.Filename] = make(map[int]bool)
					}
					out[p.Filename][p.Line] = true
				}
			}
		}
	}
	return out
}

// Directive reports whether c is a //dmi:<name> directive comment and
// returns the free text after the marker (empty for a bare marker).
func Directive(c *ast.Comment, name string) (text string, ok bool) {
	marker := "dmi:" + name
	text, ok = strings.CutPrefix(c.Text, "//"+marker)
	if !ok || (text != "" && text[0] != ' ' && text[0] != ':') {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(text, ":")), true
}

// Marked reports whether the node's line, or the line directly above it, is
// annotated in the directive line set (the two placements the annotation
// grammar allows: trailing on the statement line, or a line comment
// immediately above).
func Marked(lines map[string]map[int]bool, pass *analysis.Pass, pos token.Pos) bool {
	p := pass.Fset.Position(pos)
	return lines[p.Filename][p.Line] || lines[p.Filename][p.Line-1]
}

// NamedType resolves t (through pointers and aliases) to its named type, or
// nil: the unit modelsafe's protected-type checks key on.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// TypeIs reports whether t resolves to the named type pkgPath.name.
func TypeIs(t types.Type, pkgPath, name string) bool {
	n := NamedType(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil &&
		normalizePkgPath(obj.Pkg().Path()) == pkgPath
}

// IsBuiltinCall reports whether call invokes one of the named builtins
// (len, cap, delete, ...), resolved through the type info so shadowed
// identifiers don't fool it.
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, names ...string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := info.Uses[id].(*types.Builtin); !ok {
		return false
	}
	for _, n := range names {
		if id.Name == n {
			return true
		}
	}
	return false
}
