package fsdinference_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesAreUsed keeps the facade from growing back: every exported
// name fsdinference.go declares must be named as fsdinference.<Name> by
// another file of the module, or appear in the type of a name that is kept.
// A function's type is its signature; an alias's type is the declaration it
// aliases, its exported fields and methods, so EndpointReport is kept
// because ServiceReport's Endpoints hold them. A kept type keeps the
// constants of that type the facade re-exports (Hierarchical for
// Config.Launch): a caller outside the module has no other way to name
// them. bench/ is a module of its own and is not walked; neither are
// dot-directories, which hold whole copies of the tree.
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "fsdinference.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	facadeImports := importsOf(facade)
	// types maps each facade name to the expression that types it (nil for
	// a constant or variable); aliasOf maps an aliased "path.Name", type or
	// constant, back to its facade name.
	types := map[string]ast.Expr{}
	aliasOf := map[string]string{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				types[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					types[s.Name.Name] = s.Type
					if path, name, ok := qualified(s.Type, facadeImports); ok {
						aliasOf[path+"."+name] = s.Name.Name
					}
				case *ast.ValueSpec:
					for i, n := range s.Names {
						types[n.Name] = s.Type
						if i >= len(s.Values) || d.Tok != token.CONST {
							continue
						}
						if path, name, ok := qualified(s.Values[i], facadeImports); ok {
							aliasOf[path+"."+name] = n.Name
						}
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	var queue []string
	keep := func(path, name string) {
		if path != "fsdinference" {
			name = aliasOf[path+"."+name]
		}
		if _, ok := types[name]; ok && !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	files := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && (err == nil || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "fsdinference.go" {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		imports := importsOf(file)
		ast.Inspect(file, func(n ast.Node) bool {
			if p, name, ok := qualified(n, imports); ok && p == "fsdinference" {
				keep(p, name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d files: not the module root", files)
	}

	pkgs := map[string][]*ast.File{}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		typ := types[name]
		path, target, ok := qualified(typ, facadeImports)
		if !ok || !strings.HasPrefix(path, "fsdinference/") {
			typeRefs(typ, "fsdinference", facadeImports, keep)
			continue
		}
		// An alias: walk the aliased declaration in its own package.
		if pkgs[path] == nil {
			pkgs[path] = parseDir(t, fset, strings.TrimPrefix(path, "fsdinference/"))
		}
		for _, file := range pkgs[path] {
			imports := importsOf(file)
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					var constType ast.Expr // a const spec without type or values repeats the one above
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							if s.Type != nil || len(s.Values) > 0 {
								constType = s.Type
							}
							if id, ok := constType.(*ast.Ident); ok && id.Name == target && d.Tok == token.CONST {
								for _, n := range s.Names {
									keep(path, n.Name)
								}
							}
						case *ast.TypeSpec:
							if s.Name.Name != target {
								continue
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok {
								typeRefs(s.Type, path, imports, keep)
								continue
							}
							for _, f := range st.Fields.List {
								if len(f.Names) == 0 || f.Names[0].IsExported() {
									typeRefs(f.Type, path, imports, keep)
								}
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv != nil && d.Name.IsExported() && receiverName(d) == target {
						typeRefs(d.Type, path, imports, keep)
					}
				}
			}
		}
	}
	for name := range types {
		if ast.IsExported(name) && !kept[name] {
			t.Errorf("fsdinference.%s: no other file names it and no kept name's type mentions it; delete it", name)
		}
	}
}

// typeRefs calls ref with the package path and name of every type name in
// e, read in package path with the given imports; field and parameter
// names are skipped.
func typeRefs(e ast.Node, path string, imports map[string]string, ref func(path, name string)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			typeRefs(n.Type, path, imports, ref)
			return false
		case *ast.SelectorExpr:
			if p, name, ok := qualified(n, imports); ok {
				ref(p, name)
			}
			return false
		case *ast.Ident:
			ref(path, n.Name)
		}
		return true
	})
}

// qualified reports whether n is pkg.Name for an imported package, and
// which.
func qualified(n ast.Node, imports map[string]string) (path, name string, ok bool) {
	sel, isSel := n.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path, ok = imports[x.Name]
	return path, sel.Sel.Name, ok
}

// importsOf maps a file's import names to their paths.
func importsOf(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// parseDir parses a package's non-test files.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// receiverName is the type name a method is declared on.
func receiverName(d *ast.FuncDecl) string {
	typ := d.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
