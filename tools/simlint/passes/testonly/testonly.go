// Package testonly flags exported funcs and methods that no program
// calls, and exported fields of exported structs that no program reads
// or none writes. The exported surface of this module is what its
// commands, examples, experiments and the benchmark under bench/ use;
// an export that only tests reach is API drift, so it is deleted, moved
// into its package's _test.go, or kept under a reasoned
// //simlint:allow testonly when other packages' tests need it. A field
// that is only written is a count nobody consults; one that is only
// read is a setting that is always zero.
//
// References are read from every non-test file of the whole module and
// of bench/ (a module of its own beside the root), whatever packages
// simlint was asked to check, so one package's findings do not
// depend on the patterns. Because the loader's source importer gives
// each checked root its own types.Package, a reference is matched by
// package path, receiver type name and name rather than by object
// identity, and a field by the position of its declaration. A method
// that satisfies an interface declared in the module, bench/ or
// anything they import counts as used: a dynamic call (heap.Interface's
// Swap, flag.Value's Set, error's Error) has no static reference.
package testonly

import (
	"fmt"
	"go/ast"
	"go/token"
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
	Doc:  "forbid exported funcs, methods and struct fields that no non-test file in the module or bench/ uses",
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
	r, err := refsIn(root)
	if err != nil {
		return err
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				fn, ok := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if !ok || r.funcs[key(fn)] {
					continue
				}
				pass.Reportf(d.Name.Pos(), "%s is exported but no non-test file in the module or bench/ references it: delete it, move it into a _test.go, or keep it with //simlint:allow testonly — <which tests need it>", display(fn))
			case *ast.GenDecl:
				checkFields(pass, r, d)
			}
		}
	}
	return nil
}

// checkFields reports each named exported field of an exported struct
// type in d that no non-test file reads, or that none writes. Embedded
// fields carry methods rather than data and are left alone.
func checkFields(pass *analysis.Pass, r *refs, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if !name.IsExported() {
					continue
				}
				k := fieldKey(pass.Fset, name.Pos())
				switch {
				case !r.read[k]:
					pass.Reportf(name.Pos(), "%s.%s is exported but no non-test file in the module or bench/ reads it: delete it with its writes, or keep it with //simlint:allow testonly — <which tests need it>", ts.Name.Name, name.Name)
				case !r.written[k]:
					pass.Reportf(name.Pos(), "%s.%s is exported but no non-test file in the module or bench/ writes it, so it is always zero: delete it, or keep it with //simlint:allow testonly — <which tests set it>", ts.Name.Name, name.Name)
				}
			}
		}
	}
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

// refs is what the non-test files of one module root and its bench/
// use: the key of every func referenced or demanded by an interface,
// and the fieldKey of every field read and of every field written.
type refs struct {
	funcs, read, written map[string]bool
}

// index caches refs per module root: every package one run checks
// shares one load of the module and bench/.
var index = struct {
	sync.Mutex
	refs map[string]*refs
}{refs: map[string]*refs{}}

// refsIn loads the non-test packages of the module at root and of
// root/bench (when it is a module) and collects what they use.
func refsIn(root string) (*refs, error) {
	index.Lock()
	defer index.Unlock()
	if r, ok := index.refs[root]; ok {
		return r, nil
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
	r := &refs{funcs: map[string]bool{}, read: map[string]bool{}, written: map[string]bool{}}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				r.funcs[key(fn)] = true
			}
		}
		for _, f := range p.Files {
			r.fieldUses(p, f)
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
			markSatisfied(r.funcs, tn.Type(), ifaces)
		}
	}
	index.refs[root] = r
	return r, nil
}

// fieldKey names a field by the position of its declaration, the
// identity that survives a package being type-checked more than once.
func fieldKey(fset *token.FileSet, pos token.Pos) string {
	return fset.Position(pos).String()
}

// fieldUses marks every field f reads or writes. A write is a keyed or
// positional composite literal, an assignment, ++/--, or &x.F, which
// also reads.
func (r *refs) fieldUses(p *loader.Package, f *ast.File) {
	info := p.TypesInfo
	mark := func(set map[string]bool, v types.Object) { set[fieldKey(p.Fset, v.Pos())] = true }
	// writes maps each written expression to whether it is only written
	// (assigned) rather than also read (its address taken).
	writes := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				writes[e] = true
			}
		case *ast.IncDecStmt:
			writes[n.X] = true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				writes[n.X] = false
			}
		case *ast.CompositeLit:
			st, _ := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if st == nil {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					mark(r.written, info.Uses[kv.Key.(*ast.Ident)])
				} else {
					mark(r.written, st.Field(i))
				}
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			only, written := writes[n]
			if !only {
				mark(r.read, sel.Obj())
			}
			if written {
				mark(r.written, sel.Obj())
			}
		}
		return true
	})
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
