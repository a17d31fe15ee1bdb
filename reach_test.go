package ripki

// This file holds the module to one rule: every function in a non-test
// file is reached from a command. It lists the module with `go list`,
// type-checks the non-test files with go/types, and walks the call graph
// from every main and every package-level initialiser. A function no
// command reaches is deleted, or named in reachAllowlist with the test
// that needs it. The commands are the mains under cmd/, tools/ and
// bench/; examples/ is left out, so an example cannot keep alive what
// no command uses (nothing imports an example, and `go build ./...`
// still compiles them).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions no command reaches that stay,
// each with the test that calls it. A name is "pkg.Func", "pkg.T.M" or
// "pkg.(*T).M", pkg being the last element of the import path; "pkg.*"
// covers a whole package.
var reachAllowlist = map[string]string{
	// Test oracles: the slow, obviously right path the fast one is
	// checked against.
	"router.(*Router).Revalidate":     "router: TestRevalidateDropsNewlyInvalid; sim: TestIncrementalMatchesFull",
	"measure.(*Incremental).DirtyAll": "measure: TestIncrementalTinyUniverse; sim: TestIncrementalMatchesFull",
	"netutil.Bit":                     "radix: TestWordKeysMatchByteOracles",
	// Test support: the listener checks every command's tests run.
	"obstest.*": "ripki-served: TestSlowLorisIsCutOff; serve: TestSlowValidateBodyIsCutOff; and the other listeners' slow-loris tests",
}

func TestEveryFunctionIsReached(t *testing.T) {
	g := loadReachGraph(t)
	unreached, err := g.unreached()
	if err != nil {
		t.Fatal(err)
	}

	var stray []string
	listed := make(map[string]bool)
	for _, fn := range unreached {
		key, pkg := g.key(fn), lastElem(fn.Pkg().Path())+".*"
		if _, ok := reachAllowlist[key]; ok {
			listed[key] = true
			continue
		}
		if _, ok := reachAllowlist[pkg]; ok {
			listed[pkg] = true
			continue
		}
		stray = append(stray, fmt.Sprintf("%s: %s", g.fset.Position(fn.Pos()), key))
	}
	sort.Strings(stray)
	for _, s := range stray {
		t.Errorf("no command reaches %s: delete it, or name it in reachAllowlist with the test that uses it", s)
	}

	var stale []string
	for key := range reachAllowlist {
		if listed[key] {
			continue
		}
		if g.declared[key] {
			stale = append(stale, key+" is reached from a command now")
		} else {
			stale = append(stale, key+" is not declared any more")
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("reachAllowlist: %s: take it off the list", s)
	}
}

// reachGraph is the type-checked module: its declared functions with
// their syntax, and the syntax the walk starts from.
type reachGraph struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  []*types.Package
	decls map[*types.Func]*ast.FuncDecl
	// roots are every main and init body and every package-level
	// variable's initialiser.
	roots []ast.Node
	// declared is every function's key, for the allowlist's staleness
	// check ("pkg.*" for each package).
	declared map[string]bool
}

func loadReachGraph(t *testing.T) *reachGraph {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	cmd := exec.Command(goBin, "list", "-deps", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}

	g := &reachGraph{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		},
		decls:    make(map[*types.Func]*ast.FuncDecl),
		declared: make(map[string]bool),
	}
	std := importer.Default()
	checked := make(map[string]*types.Package)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}

	// -deps lists a package after everything it imports, so each
	// module package is checked after the ones it needs.
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath, Name, Dir string
			GoFiles               []string
			Module                *struct{ Main bool }
		}
		if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if lp.Module == nil || !lp.Module.Main || strings.HasPrefix(lp.ImportPath, "ripki/examples/") {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(lp.ImportPath, g.fset, files, g.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		g.pkgs = append(g.pkgs, pkg)
		g.declared[lastElem(lp.ImportPath)+".*"] = true
		g.addFiles(pkg, files)
	}
	return g
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (g *reachGraph) addFiles(pkg *types.Package, files []*ast.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := g.info.Defs[d.Name].(*types.Func)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.Name() == "main") {
					g.roots = append(g.roots, d)
					continue
				}
				g.decls[fn] = d
				g.declared[g.key(fn)] = true
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					g.roots = append(g.roots, d)
				}
			}
		}
	}
}

// key names fn the way reachAllowlist does.
func (g *reachGraph) key(fn *types.Func) string {
	name := lastElem(fn.Pkg().Path()) + "."
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return name + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		return name + "(*" + typeName(p.Elem()) + ")." + fn.Name()
	}
	return name + typeName(rt) + "." + fn.Name()
}

func typeName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

func lastElem(path string) string { return path[strings.LastIndex(path, "/")+1:] }

// unreached walks from the roots and returns every declared function the
// walk did not reach. A function is reached when reached code names it.
// Dynamic dispatch is taken conservatively: a method is reached once
// reached code uses a value of its type (or a type holding one) and some
// interface type the module or its imports declare has a method of that
// name.
func (g *reachGraph) unreached() ([]*types.Func, error) {
	ifaceMethods := g.interfaceMethodNames()
	funcs := make(map[*types.Func]bool)
	typesSeen := make(map[types.Type]bool)
	var work []ast.Node

	var markType func(types.Type)
	markFunc := func(fn *types.Func) {
		fn = fn.Origin()
		if funcs[fn] {
			return
		}
		funcs[fn] = true
		markType(fn.Type())
		if d := g.decls[fn]; d != nil && d.Body != nil {
			work = append(work, d.Body)
		}
	}
	markType = func(t types.Type) {
		if t == nil || typesSeen[t] {
			return
		}
		typesSeen[t] = true
		switch t := t.(type) {
		case *types.Named:
			markType(t.Origin())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				markType(t.TypeArgs().At(i))
			}
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); ifaceMethods[m.Name()] {
					markFunc(m)
				}
			}
			markType(t.Underlying())
		case *types.Pointer:
			markType(t.Elem())
		case *types.Slice:
			markType(t.Elem())
		case *types.Array:
			markType(t.Elem())
		case *types.Chan:
			markType(t.Elem())
		case *types.Map:
			markType(t.Key())
			markType(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				markType(t.Field(i).Type())
			}
		case *types.Signature:
			markType(t.Params())
			markType(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				markType(t.At(i).Type())
			}
		}
	}
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch obj := g.info.Uses[id].(type) {
				case *types.Func:
					markFunc(obj)
				case *types.TypeName:
					markType(obj.Type())
				}
			}
			if e, ok := n.(ast.Expr); ok {
				markType(g.info.TypeOf(e))
			}
			return true
		})
	}

	work = append(work, g.roots...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		visit(n)
	}

	var out []*types.Func
	for fn := range g.decls {
		if !funcs[fn] {
			out = append(out, fn)
		}
	}
	if len(out) == len(g.decls) {
		return nil, errors.New("the walk reached nothing: no main found")
	}
	return out, nil
}

// interfaceMethodNames is the name of every method of every interface
// type declared in the module, in a package it imports (transitively),
// or written inline in its code; and error's, and the ones the standard
// library asserts through interfaces it does not export (errors.Is/As
// and http.ResponseController unwrap with them).
func (g *reachGraph) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range g.pkgs {
		walk(p)
	}
	for _, tv := range g.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return names
}
