package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportsHaveProductionCallers keeps internal/ from regrowing an API that
// only tests use. Every exported function and method declared in a non-test
// file under internal/ must be reached from production code: the cmd/
// binaries, the examples, the tiscc facade or the perfbench module, directly
// or through other internal functions that are themselves reached. Code that
// only an unreached function references does not count, so the check
// iterates until nothing new is flagged. An exported function that another
// package's tests call is test support (Go cannot share _test.go code across
// packages) and passes.
//
// Allowlisted: the paper's lattice-surgery operations (kept as the
// instruction set, exercised by tests), and methods whose name appears on an
// interface that production code uses (String, MarshalJSON, Set, Int63, …),
// since those are called through the interface.
func TestExportsHaveProductionCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	modules := []string{root, filepath.Join(root, "perfbench")}

	g := &callGraph{decls: map[string]*funcDecl{}, refs: map[string]map[string]bool{}, ifaceMethods: map[string]bool{}}
	for _, name := range dynamicInterfaceMethods {
		g.ifaceMethods[name] = true
	}
	for _, dir := range modules {
		pkgs, err := Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			g.addProduction(p)
		}
	}
	testDirs := map[string]map[string]bool{} // function key → dirs of test files referencing it
	for _, dir := range modules {
		if err := collectTestReferences(dir, testDirs); err != nil {
			t.Fatal(err)
		}
	}

	live := func(k string, d *funcDecl) bool {
		if !d.internal || paperOperations[k] || d.name == "init" || (d.method && g.ifaceMethods[d.name]) {
			return true
		}
		for dir := range testDirs[k] {
			if dir != d.dir {
				return true // test support for another package
			}
		}
		return false
	}
	dead := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for k, d := range g.decls {
			if dead[k] || live(k, d) {
				continue
			}
			if !g.reached(k, dead) {
				dead[k] = true
				changed = true
			}
		}
	}

	var exported int
	var offenders, support []string
	for k, d := range g.decls {
		if !d.internal || !d.exported {
			continue
		}
		exported++
		switch {
		case dead[k]:
			offenders = append(offenders, fmt.Sprintf("%s: %s has no production caller", rel(root, d.pos), k))
		case !paperOperations[k] && !(d.method && g.ifaceMethods[d.name]) && !g.reached(k, dead):
			support = append(support, fmt.Sprintf("%s: %s", rel(root, d.pos), k))
		}
	}
	sort.Strings(offenders)
	sort.Strings(support)
	t.Logf("%d exported functions and methods in internal/ non-test files; %d kept only as test support for other packages:\n%s",
		exported, len(support), strings.Join(support, "\n"))
	if len(offenders) > 0 {
		t.Errorf("%d exported internal functions are reached only by their own package's tests, or by nothing; "+
			"delete them or move them into a _test.go file:\n%s", len(offenders), strings.Join(offenders, "\n"))
	}
}

// paperOperations are the paper's §3 instruction-set operations. They stay
// in the compiler even where no command line reaches them.
var paperOperations = map[string]bool{
	"(*tiscc/internal/instr.Layout).BellChain":               true,
	"(*tiscc/internal/instr.Layout).HadamardRotate":          true,
	"(*tiscc/internal/core.LogicalQubit).ContractFromRight":  true,
	"(*tiscc/internal/core.LogicalQubit).SplitHorizontal":    true,
	"(*tiscc/internal/core.LogicalQubit).DescribePlaquettes": true,
	"(*tiscc/internal/core.LogicalQubit).TrackPauliFrame":    true,
	"(*tiscc/internal/core.Compiler).OutputImage":            true,
	"(*tiscc/internal/core.Compiler).MarkChannelStart":       true,
}

// dynamicInterfaceMethods are the methods the standard library finds by a
// dynamic interface check (fmt, errors, flag, encoding/json), which no signature
// in the program names.
var dynamicInterfaceMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As", "IsBoolFlag",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
}

type funcDecl struct {
	name     string
	pos      token.Position
	dir      string
	method   bool
	exported bool // exported name on a package-level function or an exported type
	internal bool // declared under tiscc/internal/
}

// callGraph records, for each function declared in production code, the
// functions whose bodies reference it ("" for package-level declarations).
type callGraph struct {
	decls        map[string]*funcDecl
	refs         map[string]map[string]bool
	ifaceMethods map[string]bool // method names of interfaces production code uses
}

func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

func (g *callGraph) addProduction(p *Package) {
	internal := strings.HasPrefix(p.PkgPath, "tiscc/internal/")
	for _, f := range p.Syntax {
		for _, decl := range f.Decls {
			from := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				from = funcKey(fn)
				d := &funcDecl{name: fn.Name(), pos: p.Fset.Position(fd.Name.Pos()), dir: p.Dir, internal: internal, exported: fn.Exported()}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					d.method = true
					d.exported = d.exported && receiverExported(recv.Type())
				}
				g.decls[from] = d
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				switch obj := p.Info.Uses[id].(type) {
				case *types.Func:
					if to := funcKey(obj); to != from {
						if g.refs[to] == nil {
							g.refs[to] = map[string]bool{}
						}
						g.refs[to][from] = true
					}
					g.addInterfaces(obj.Type())
				case *types.TypeName:
					g.addInterfaces(obj.Type())
				}
				return true
			})
		}
	}
}

// addInterfaces records the method names of t, if t is an interface, and of
// the interfaces in t's parameters and results, if t is a signature.
func (g *callGraph) addInterfaces(t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				g.addInterfaces(tuple.At(i).Type())
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			g.ifaceMethods[iface.Method(i).Name()] = true
		}
	}
}

func receiverExported(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Exported()
}

// reached reports whether a package-level declaration or a function not in
// dead references k.
func (g *callGraph) reached(k string, dead map[string]bool) bool {
	for from := range g.refs[k] {
		if from == "" || !dead[from] {
			return true
		}
	}
	return false
}

func rel(root string, pos token.Position) string {
	if r, err := filepath.Rel(root, pos.Filename); err == nil {
		pos.Filename = r
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// collectTestReferences type-checks the test variants of every package in
// the module at dir and records, for each function a _test.go file
// references, the directory of that test file.
func collectTestReferences(dir string, into map[string]map[string]bool) error {
	cmd := exec.Command("go", "list", "-e", "-test", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -test: %v\n%s", err, stderr.String())
	}
	type listed struct {
		ImportPath string
		Dir        string
		GoFiles    []string
		Export     string
		ForTest    string
		DepOnly    bool
		ImportMap  map[string]string
	}
	var all []*listed
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		lp := new(listed)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		all = append(all, lp)
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	for _, lp := range all {
		if lp.DepOnly || lp.ForTest == "" {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		p, err := TypeCheck(fset, strings.Fields(lp.ImportPath)[0], lp.Dir, files, exports, lp.ImportMap)
		if err != nil {
			return err
		}
		if len(p.TypeErrors) > 0 {
			return fmt.Errorf("type-checking %s: %v", lp.ImportPath, p.TypeErrors[0])
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !strings.HasSuffix(fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			k := funcKey(fn)
			if into[k] == nil {
				into[k] = map[string]bool{}
			}
			into[k][lp.Dir] = true
		}
	}
	return nil
}
