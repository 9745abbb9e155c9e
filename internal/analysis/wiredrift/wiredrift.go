// Package wiredrift implements the dmi-vet analyzer that keeps the
// distributed-serving wire contract in one place.
//
// internal/serveproto exists so that the dmi-serve daemon and its clients
// (bench.RemoteDispatcher, dmi-coord) compile against the same structs: a
// field rename is a build break, not a silent protocol skew (DESIGN.md §8).
// Two things erode that guarantee over time, and the analyzer forbids both:
//
// Implicit field names. An exported field of a serveproto wire struct
// without an explicit `json` tag is serialized under its Go name — so a
// later Go-level rename silently renames the wire field, and nothing stops
// two fields from colliding after a refactor. Every exported field must
// carry an explicit `json` tag with a name (or an explicit "-"), unique
// within its struct.
//
// Ad-hoc decode structs. An anonymous struct literal handed to
// json.Unmarshal or (*json.Decoder).Decode in a wire-protocol participant
// (the bench dispatcher, the daemon, the coordinator — tests included) is a
// second, unchecked copy of the contract: it compiles no matter what
// serveproto says, which is exactly the drift the shared package exists to
// prevent. Views needed only for testing (raw-byte comparisons, partial
// decodes) belong in serveproto next to the structs they mirror.
//
// Those raw views are themselves a drift surface, so the analyzer pins them
// too: a serveproto struct named Raw<X> whose base <X> exists must mirror it
// field for field — same field names in the same order, identical struct
// tags — with json.RawMessage permitted wherever the view leaves a payload
// undecoded. A field added to SessionResponse but not RawSessionResponse is then
// a vet failure, not a silently-partial byte-equivalence test.
package wiredrift

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"

	"repro/internal/analysis/vetkit"
)

// protoPkg is the wire-contract package whose structs are checked for
// explicit, unique json tags.
const protoPkg = "repro/internal/serveproto"

// ClientScope lists the wire-protocol participants in which ad-hoc
// anonymous decode structs are forbidden.
var ClientScope = []string{
	"repro/internal/bench",
	"repro/cmd/dmi-serve",
	"repro/cmd/dmi-coord",
}

var Analyzer = &analysis.Analyzer{
	Name: "wiredrift",
	Doc: "keep the serveproto wire contract explicit and in one place\n\n" +
		"Exported fields of serveproto structs need explicit unique json tags; protocol\n" +
		"participants must decode wire bodies into serveproto types, not anonymous structs.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	if vetkit.InScope(pass.Pkg.Path(), []string{protoPkg}) {
		insp.Preorder([]ast.Node{(*ast.StructType)(nil)}, func(n ast.Node) {
			checkWireStruct(pass, n.(*ast.StructType))
		})
		checkRawMirrors(pass)
		return nil, nil
	}
	if vetkit.InScope(pass.Pkg.Path(), ClientScope) {
		insp.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			checkDecodeTarget(pass, n.(*ast.CallExpr))
		})
	}
	return nil, nil
}

// checkWireStruct enforces explicit, unique json tags on every exported
// field of a serveproto struct.
func checkWireStruct(pass *analysis.Pass, st *ast.StructType) {
	seen := make(map[string]*ast.Field)
	for _, f := range st.Fields.List {
		names := f.Names
		if len(names) == 0 {
			// Embedded field: its identity is a type name, which makes the
			// wire layout follow a Go-level detail — always explicit-tag it
			// by wrapping in a named field instead.
			pass.Reportf(f.Pos(), "embedded field in a serveproto wire struct: give it a named field with an explicit json tag")
			continue
		}
		for _, name := range names {
			if !name.IsExported() {
				continue
			}
			tagName, ok := jsonTagName(f)
			if !ok {
				pass.Reportf(f.Pos(), "exported wire field %s has no explicit json tag: the wire name must not follow Go-level renames", name.Name)
				continue
			}
			if tagName == "-" {
				continue
			}
			if tagName == "" {
				pass.Reportf(f.Pos(), "exported wire field %s has a json tag without a name: name it explicitly (or exclude it with \"-\")", name.Name)
				continue
			}
			if prev, dup := seen[tagName]; dup {
				pass.Reportf(f.Pos(), "wire field %s reuses json name %q (already used by %s): wire names must be unique within a struct", name.Name, tagName, prev.Names[0].Name)
				continue
			}
			seen[tagName] = f
		}
	}
}

// jsonTagName extracts the name part of a field's json tag; ok is false
// when there is no json tag at all.
func jsonTagName(f *ast.Field) (name string, ok bool) {
	if f.Tag == nil {
		return "", false
	}
	raw, err := strconv.Unquote(f.Tag.Value)
	if err != nil {
		return "", false
	}
	tag, ok := reflect.StructTag(raw).Lookup("json")
	if !ok {
		return "", false
	}
	name, _, _ = strings.Cut(tag, ",")
	return name, true
}

// checkRawMirrors pins every Raw<X> view struct to its base <X>: same field
// names in the same order, identical struct tags, and identical field types
// except where the view substitutes json.RawMessage for an undecoded
// payload.
func checkRawMirrors(pass *analysis.Pass) {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		base, ok := strings.CutPrefix(name, "Raw")
		if !ok || base == "" {
			continue
		}
		baseObj := scope.Lookup(base)
		if baseObj == nil {
			continue
		}
		rawObj := scope.Lookup(name)
		rawSt, ok := rawObj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		baseSt, ok := baseObj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if rawSt.NumFields() != baseSt.NumFields() {
			pass.Reportf(rawObj.Pos(), "raw view %s has %d fields but %s has %d: raw views must mirror their base struct field for field",
				name, rawSt.NumFields(), base, baseSt.NumFields())
			continue
		}
		for i := 0; i < rawSt.NumFields(); i++ {
			rf, bf := rawSt.Field(i), baseSt.Field(i)
			switch {
			case rf.Name() != bf.Name():
				pass.Reportf(rf.Pos(), "raw view %s field %d is %s but %s names it %s: raw views must mirror field order and names",
					name, i, rf.Name(), base, bf.Name())
			case rawSt.Tag(i) != baseSt.Tag(i):
				pass.Reportf(rf.Pos(), "raw view %s field %s has tag %q but %s tags it %q: a raw view must keep the same wire names",
					name, rf.Name(), rawSt.Tag(i), base, baseSt.Tag(i))
			case !types.Identical(rf.Type(), bf.Type()) && !isRawMessage(rf.Type()):
				pass.Reportf(rf.Pos(), "raw view %s field %s has type %s, want %s or json.RawMessage",
					name, rf.Name(), rf.Type(), bf.Type())
			}
		}
	}
}

// isRawMessage reports whether t is encoding/json.RawMessage.
func isRawMessage(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" && obj.Name() == "RawMessage"
}

// checkDecodeTarget flags json.Unmarshal / (*json.Decoder).Decode calls
// whose target is an anonymous struct.
func checkDecodeTarget(pass *analysis.Pass, call *ast.CallExpr) {
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return
	}
	var target ast.Expr
	switch {
	case fn.Name() == "Unmarshal" && len(call.Args) == 2:
		target = call.Args[1]
	case fn.Name() == "Decode" && len(call.Args) == 1:
		target = call.Args[0]
	default:
		return
	}
	t := pass.TypesInfo.TypeOf(target)
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if _, anon := t.(*types.Struct); anon {
		pass.Reportf(target.Pos(), "wire body decoded into an anonymous struct: declare the view in internal/serveproto so the contract stays in one package")
	}
}
