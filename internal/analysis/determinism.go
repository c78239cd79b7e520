package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterministicPackages is the default set of package names whose artifacts
// (shot records, compiled programs, wire bytes, manifests, cache keys) must
// be bit-identical across runs, seeds, and worker counts. Wall-clock and map
// iteration order are the two nondeterminism sources Go makes easy to reach
// for; inside these packages both require either a sort or an explicit
// //tiscc:nondeterministic waiver.
var DeterministicPackages = map[string]bool{
	"tableau":    true,
	"frame":      true,
	"noise":      true,
	"decoder":    true,
	"experiment": true,
	"orqcs":      true,
	"verify":     true,
	"wire":       true,
	"serve":      true,
	"telemetry":  true,
}

// randConstructors are the math/rand entry points that build explicitly
// seeded generators; those are deterministic by construction and allowed.
// Everything else package-level in math/rand (the process-global RNG) is not.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// DeterminismAnalyzer enforces the bit-identical-records invariant: no wall
// clock, no global RNG, and no unsorted map iteration in the deterministic
// packages.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: `forbid wall-clock reads (time.Now/Since/Until), the process-global
math/rand RNG, and unsorted map iteration in the deterministic packages
(tableau, frame, noise, decoder, experiment, orqcs, verify, wire, serve,
telemetry).
Map ranges are accepted when the loop body is order-insensitive (pure
accumulation) or when the collected slice is sorted afterwards in the same
function; anything else needs //tiscc:nondeterministic <reason>.`,
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !DeterministicPackages[strings.TrimSuffix(pass.Pkg.Name(), "_test")] {
		return nil
	}
	for _, f := range pass.Files {
		// Test files simulate wall-clock and randomness freely; the
		// bit-identical-artifact contract binds only the shipped code paths.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// checkForbiddenCall flags wall-clock reads and global-RNG use.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return
	}
	// Method calls (e.g. (*rand.Rand).Intn on a seeded generator, or
	// (time.Time).Sub on a caller-supplied instant) are fine; only
	// package-level functions reach ambient state.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch pkgPathOf(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "call to time.%s in deterministic package %q: wall-clock reads break bit-identical artifacts (use //tiscc:nondeterministic <reason> if this never feeds records or encoded output)",
				fn.Name(), pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(), "call to the process-global RNG %s.%s in deterministic package %q: derive randomness from an explicitly seeded rand.New(source) instead",
			pathBase(pkgPathOf(fn)), fn.Name(), pass.Pkg.Name())
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// checkMapRanges walks one function body looking for `range` over map types.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if orderInsensitiveBody(pass, rng) {
			return true
		}
		if appendedSliceSortedLater(pass, body, rng) {
			return true
		}
		pass.Reportf(rng.Pos(), "map iteration order is random: this range's effects are order-sensitive and its results are not sorted afterwards in this function; sort the keys, restructure the body into pure accumulation, or annotate //tiscc:nondeterministic <reason>")
		return true
	})
}

// orderInsensitiveBody reports whether every statement in the range body is
// pure accumulation, so iteration order cannot be observed: commutative
// op-assignments, counter bumps, per-range-key map writes, deletes, and
// if/else around the same. Any call, append, return, send, or other write
// makes the body order-sensitive.
func orderInsensitiveBody(pass *Pass, rng *ast.RangeStmt) bool {
	keyObj := rangeKeyObj(pass, rng)
	var safe func(stmts []ast.Stmt) bool
	safeStmt := func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return sideEffectFree(pass, s.X)
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
				token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				// Commutative/associative accumulation: order-free as long
				// as neither side runs code.
				return len(s.Lhs) == 1 && sideEffectFree(pass, s.Lhs[0]) && sideEffectFree(pass, s.Rhs[0])
			case token.ASSIGN:
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 || !sideEffectFree(pass, s.Rhs[0]) {
					return false
				}
				// m2[k] = v keyed by the range key visits each key once.
				if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && keyObj != nil {
					if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == keyObj {
						return sideEffectFree(pass, ix.X)
					}
				}
				// flag = <constant> (e.g. found = true) converges regardless
				// of order.
				if id, ok := s.Lhs[0].(*ast.Ident); ok && isConstExpr(pass.TypesInfo, s.Rhs[0]) {
					_ = id
					return true
				}
				return false
			}
			return false
		case *ast.ExprStmt:
			// delete(m, k) is the one call that cannot observe order.
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						return true
					}
				}
			}
			return false
		case *ast.IfStmt:
			if s.Init != nil || !sideEffectFree(pass, s.Cond) {
				return false
			}
			if !safe(s.Body.List) {
				return false
			}
			switch e := s.Else.(type) {
			case nil:
				return true
			case *ast.BlockStmt:
				return safe(e.List)
			default:
				return false
			}
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE && s.Label == nil
		case *ast.EmptyStmt:
			return true
		}
		return false
	}
	safe = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			if blk, ok := s.(*ast.BlockStmt); ok {
				if !safe(blk.List) {
					return false
				}
				continue
			}
			if !safeStmt(s) {
				return false
			}
		}
		return true
	}
	return safe(rng.Body.List)
}

func rangeKeyObj(pass *Pass, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// sideEffectFree reports whether evaluating e cannot run user code: idents,
// selectors, index/deref chains, literals, and len/cap over the same.
func sideEffectFree(pass *Pass, e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID {
				if b, isB := pass.TypesInfo.Uses[id].(*types.Builtin); isB && (b.Name() == "len" || b.Name() == "cap") {
					return true
				}
			}
			ok = false
			return false
		}
		return true
	})
	return ok
}

// appendedSliceSortedLater accepts the canonical collect-then-sort pattern:
// the loop body's only order-sensitive effect is appending to slices, and
// every such slice is passed to a sort/slices call later in the function.
func appendedSliceSortedLater(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	// Collect append targets: s = append(s, ...).
	var targets []string
	sortable := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range s.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			if i < len(s.Lhs) && len(call.Args) > 0 && exprText(s.Lhs[i]) == exprText(call.Args[0]) {
				targets = append(targets, exprText(s.Lhs[i]))
			} else {
				sortable = false
			}
		}
		return true
	})
	if !sortable || len(targets) == 0 {
		return false
	}
	// Beyond the appends, the rest of the body must still be order-free: a
	// body that appends AND, say, writes other state keyed on order would
	// slip through otherwise. We check that every non-append statement set is
	// safe by re-running the accumulation check with appends masked out. A
	// cheap approximation: allow appends plus the safe statement forms by
	// treating `s = append(s, ...)` as safe here.
	if !orderInsensitiveBodyIgnoringAppends(pass, rng) {
		return false
	}
	for _, tgt := range targets {
		if !sortedInFunc(pass, fnBody, rng, tgt) {
			return false
		}
	}
	return true
}

// orderInsensitiveBodyIgnoringAppends is orderInsensitiveBody with
// self-appends (s = append(s, ...)) treated as safe.
func orderInsensitiveBodyIgnoringAppends(pass *Pass, rng *ast.RangeStmt) bool {
	masked := *rng
	masked.Body = maskAppends(pass, rng.Body)
	return orderInsensitiveBody(pass, &masked)
}

// maskAppends returns a copy of body with self-append statements replaced by
// empty statements.
func maskAppends(pass *Pass, body *ast.BlockStmt) *ast.BlockStmt {
	out := &ast.BlockStmt{Lbrace: body.Lbrace, Rbrace: body.Rbrace}
	for _, s := range body.List {
		switch st := s.(type) {
		case *ast.AssignStmt:
			if isSelfAppend(pass, st) {
				out.List = append(out.List, &ast.EmptyStmt{Semicolon: st.Pos()})
				continue
			}
		case *ast.IfStmt:
			if st.Init == nil && st.Else == nil {
				cp := *st
				cp.Body = maskAppends(pass, st.Body)
				out.List = append(out.List, &cp)
				continue
			}
		case *ast.BlockStmt:
			out.List = append(out.List, maskAppends(pass, st))
			continue
		}
		out.List = append(out.List, s)
	}
	return out
}

func isSelfAppend(pass *Pass, s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && exprText(s.Lhs[0]) == exprText(call.Args[0])
}

// sortedInFunc reports whether target (source text of a slice expression) is
// passed to a sort or slices call positioned after the range statement.
func sortedInFunc(pass *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		switch pkgPathOf(fn) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if strings.Contains(exprText(arg), target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
