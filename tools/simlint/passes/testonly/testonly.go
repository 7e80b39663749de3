// Package testonly flags exported funcs and methods that no program
// calls. The exported surface of this module is what its commands,
// examples, experiments and the benchmark under bench/ use; an export
// that only tests reach is API drift, so it is deleted, moved into its
// package's _test.go, or kept under a reasoned
// //simlint:allow testonly when other packages' tests need it.
//
// References are read from every non-test file of the whole module and
// of bench/ (a module of its own beside the root), whatever packages
// simlint was asked to check, so one package's findings do not
// depend on the patterns. Because the loader's source importer gives
// each checked root its own types.Package, a reference is matched by
// package path, receiver type name and name rather than by object
// identity. A method that satisfies an interface declared in the
// module, bench/ or anything they import counts as used: a dynamic
// call (heap.Interface's Swap, flag.Value's Set, error's Error) has no
// static reference.
package testonly

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/loader"
)

var Analyzer = &analysis.Analyzer{
	Name: "testonly",
	Doc:  "forbid exported funcs and methods that no non-test file in the module or bench/ references",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if len(pass.Files) == 0 {
		return nil
	}
	root := moduleRoot(filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename))
	if root == "" {
		return nil
	}
	used, err := usedIn(root)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || used[key(fn)] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is exported but no non-test file in the module or bench/ references it: delete it, move it into a _test.go, or keep it with //simlint:allow testonly — <which tests need it>", display(fn))
		}
	}
	return nil
}

// moduleRoot is the nearest directory at or above dir holding a go.mod.
func moduleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// key names fn by package path, receiver type and name, the identity
// that survives a package being type-checked more than once.
func key(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	return path + "." + recvName(fn) + "." + fn.Name()
}

func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}

func display(fn *types.Func) string {
	if r := recvName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// index caches the used set per module root: every package one run
// checks shares one load of the module and bench/.
var index = struct {
	sync.Mutex
	used map[string]map[string]bool
}{used: map[string]map[string]bool{}}

// usedIn loads the non-test packages of the module at root and of
// root/bench (when it is a module) and returns the key of every func
// they reference or whose method an interface demands.
func usedIn(root string) (map[string]bool, error) {
	index.Lock()
	defer index.Unlock()
	if used, ok := index.used[root]; ok {
		return used, nil
	}
	l := loader.Shared()
	pkgs, err := l.Load(root, "./...")
	if err != nil {
		return nil, fmt.Errorf("testonly: %v", err)
	}
	if bench := filepath.Join(root, "bench"); moduleRoot(bench) == bench {
		more, err := l.Load(bench, "./...")
		if err != nil {
			return nil, fmt.Errorf("testonly: bench: %v", err)
		}
		pkgs = append(pkgs, more...)
	}
	used := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[key(fn)] = true
			}
		}
	}
	ifaces := interfaces(pkgs)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) || isGeneric(tn) {
				continue
			}
			markSatisfied(used, tn.Type(), ifaces)
		}
	}
	index.used[root] = used
	return used, nil
}

// interfaces collects the universe's error and every non-generic
// package-level interface with methods in pkgs and everything they
// import, each imported copy included: an interface and the type that
// satisfies it must come from the same type-check to compare.
func interfaces(pkgs []*loader.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if isGeneric(tn) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return out
}

func isGeneric(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// markSatisfied marks, for each interface that t or *t implements, the
// methods of t that the interface names.
func markSatisfied(used map[string]bool, t types.Type, ifaces []*types.Interface) {
	ptr := types.NewPointer(t)
	mset := types.NewMethodSet(ptr)
	if mset.Len() == 0 {
		return
	}
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
				used[key(sel.Obj().(*types.Func))] = true
			}
		}
	}
}
