// Package analysis is tiscc's static-analysis suite: repo-specific checkers
// that turn the pipeline's runtime invariants — bit-identical records across
// engines/seeds/workers, 0 allocs/shot on the sampling hot path, well-formed
// telemetry and wire surfaces — into review-time build failures.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: the build environment
// has no module proxy, so the suite runs on the standard library alone.
// cmd/tiscc-vet drives the suite either standalone (package patterns,
// loaded via `go list -export`) or as a `go vet -vettool` unit checker.
//
// Suppression contract: a finding can be waived with a marker comment that
// names the analyzer and gives a reason,
//
//	//tiscc:allow(<analyzer>) <reason>
//
// placed on the offending line, the line above it, or in the doc comment of
// the enclosing declaration. The determinism analyzer additionally honors
// the spelling //tiscc:nondeterministic <reason>. A marker without a reason
// is itself a diagnostic: waivers must say why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one named check over a single package.
type Analyzer struct {
	Name string // short lower-case identifier, used in //tiscc:allow(<name>)
	Doc  string // one-paragraph description of the invariant enforced
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	suppress map[*ast.File]suppressIndex
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a diagnostic at pos unless a suppression marker covers it.
// Suppression markers with a missing reason are converted into their own
// diagnostic, so a bare marker can never silence a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if bad, badPos := p.suppressedAt(pos); bad != "" {
		p.Report(Diagnostic{Pos: badPos, Message: bad, Analyzer: p.Analyzer.Name})
		return
	} else if badPos != token.NoPos {
		return // validly suppressed
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// --- Suppression markers -----------------------------------------------------

// marker is one parsed //tiscc:allow(...) or //tiscc:nondeterministic comment.
type marker struct {
	analyzer string // analyzer name the marker waives
	reason   string // required justification text
	line     int    // line the marker appears on
	pos      token.Pos
}

type suppressIndex struct {
	byLine map[int][]marker // marker line → markers
	// funcLines maps every line of a function whose *doc comment* carries a
	// marker to that marker, so declaration-level waivers cover the body.
	funcLines map[int][]marker
}

// parseMarker parses one comment line; ok reports whether it is a tiscc
// suppression marker at all.
func parseMarker(text string) (analyzer, reason string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "//"))
	switch {
	case strings.HasPrefix(text, "tiscc:nondeterministic"):
		return "determinism", strings.TrimSpace(strings.TrimPrefix(text, "tiscc:nondeterministic")), true
	case strings.HasPrefix(text, "tiscc:allow("):
		rest := strings.TrimPrefix(text, "tiscc:allow(")
		i := strings.IndexByte(rest, ')')
		if i < 0 {
			return "", "", false
		}
		return strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+1:]), true
	}
	return "", "", false
}

func (p *Pass) buildSuppressIndex(f *ast.File) suppressIndex {
	idx := suppressIndex{byLine: map[int][]marker{}, funcLines: map[int][]marker{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			an, reason, ok := parseMarker(c.Text)
			if !ok {
				continue
			}
			m := marker{analyzer: an, reason: reason, line: p.Fset.Position(c.Pos()).Line, pos: c.Pos()}
			idx.byLine[m.line] = append(idx.byLine[m.line], m)
		}
	}
	// Doc-comment markers cover the whole declaration body.
	for _, decl := range f.Decls {
		var doc *ast.CommentGroup
		switch d := decl.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			an, reason, ok := parseMarker(c.Text)
			if !ok {
				continue
			}
			m := marker{analyzer: an, reason: reason, line: p.Fset.Position(c.Pos()).Line, pos: c.Pos()}
			start := p.Fset.Position(decl.Pos()).Line
			end := p.Fset.Position(decl.End()).Line
			for l := start; l <= end; l++ {
				idx.funcLines[l] = append(idx.funcLines[l], m)
			}
		}
	}
	return idx
}

// suppressedAt reports how pos relates to suppression markers for this pass's
// analyzer. A valid marker on the same line, the line above, or the enclosing
// declaration's doc comment suppresses (returns "", marker position). A
// matching marker with an empty reason returns a diagnostic message. No
// marker returns ("", token.NoPos).
func (p *Pass) suppressedAt(pos token.Pos) (badMsg string, at token.Pos) {
	file := p.fileFor(pos)
	if file == nil {
		return "", token.NoPos
	}
	if p.suppress == nil {
		p.suppress = map[*ast.File]suppressIndex{}
	}
	idx, ok := p.suppress[file]
	if !ok {
		idx = p.buildSuppressIndex(file)
		p.suppress[file] = idx
	}
	line := p.Fset.Position(pos).Line
	candidates := append(append([]marker{}, idx.byLine[line]...), idx.byLine[line-1]...)
	candidates = append(candidates, idx.funcLines[line]...)
	for _, m := range candidates {
		if m.analyzer != p.Analyzer.Name {
			continue
		}
		if m.reason == "" {
			return fmt.Sprintf("suppression of %q requires a reason: //tiscc:allow(%s) <why this is safe>",
				p.Analyzer.Name, p.Analyzer.Name), m.pos
		}
		return "", m.pos
	}
	return "", token.NoPos
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// Suite returns the full tiscc analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		HotpathAnalyzer,
		TelemetryAnalyzer,
		WireAnalyzer,
	}
}

// --- Shared AST/type helpers -------------------------------------------------

// calleeFunc resolves the *types.Func a call statically dispatches to, or nil
// for builtins, function values, and interface-method calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			if fn != nil && types.IsInterface(sel.Recv().Underlying()) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Package-qualified function: pkg.F.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgPathOf returns the import path of the package defining obj ("" for
// builtins and objects in the universe scope).
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isNamed reports whether t (after pointer indirection) is a named type
// called typeName declared in a package whose *name* is pkgName. Matching by
// package name rather than import path keeps the analyzers applicable to
// test fixtures, which stub the target packages under their own module path.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// exprText renders an expression as compact source text, for identity
// comparisons (e.g. `sc.order` on both sides of an append).
func exprText(e ast.Expr) string { return types.ExprString(e) }

// isConstExpr reports whether e is a compile-time constant.
func isConstExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// isPointerShaped reports whether values of type t fit in one word and so
// convert to an interface without allocating (pointers, channels, maps,
// funcs, unsafe pointers).
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
