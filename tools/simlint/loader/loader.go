// Package loader type-checks Go packages for simlint without any
// dependency beyond the standard library. Package enumeration shells
// out to `go list -json` (which works offline); type checking uses
// go/types with the stdlib source importer, so dependencies — standard
// library and module-local alike — are checked from source rather than
// from export data that the container may not have.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path
	Files     []*ast.File
	Fset      *token.FileSet
	Types     *types.Package
	TypesInfo *types.Info
}

// A Loader owns the FileSet and importer shared by every package it
// loads, so each dependency is source-checked at most once per run, and
// each package Load returns is checked once however often it is listed.
type Loader struct {
	Fset   *token.FileSet
	imp    types.ImporterFrom
	loaded map[string]*Package
}

// New returns a Loader backed by the stdlib source importer.
func New() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		imp:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		loaded: map[string]*Package{},
	}
}

var shared = New()

// Shared returns the process's one Loader: simlint's main loads the packages
// it checks through it, and an analyzer that reads the whole module (the
// testonly pass) finds them already checked.
func Shared() *Loader { return shared }

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
}

// List enumerates the non-test packages matching patterns under root,
// in deterministic (import path) order.
func (l *Loader) List(root string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// Load lists and type-checks every package matching patterns under
// root. Test files are not loaded: simlint guards the simulation's
// production surfaces, and the determinism suites themselves exercise
// wall-clock-free behavior directly.
func (l *Loader) Load(root string, patterns ...string) ([]*Package, error) {
	listed, err := l.List(root, patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		if pkg, ok := l.loaded[lp.Dir]; ok {
			out = append(out, pkg)
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		l.loaded[lp.Dir] = pkg
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir type-checks the single package rooted at dir under the given
// import path. Used by the analysistest harness, whose fixture
// packages live outside the module under testdata/src.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return l.check(path, dir, files)
}

func (l *Loader) check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: importFrom{l.imp, dir},
		Error:    func(error) {}, // collect all errors; first one returned below
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Files:     files,
		Fset:      l.Fset,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// importFrom adapts the source importer to plain Importer calls,
// resolving relative to the importing package's directory so
// module-local import paths work.
type importFrom struct {
	imp types.ImporterFrom
	dir string
}

func (i importFrom) Import(path string) (*types.Package, error) {
	return i.imp.ImportFrom(path, i.dir, 0)
}
