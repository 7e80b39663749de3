// Package analysis is a self-contained, dependency-free skeleton of the
// golang.org/x/tools/go/analysis API: an Analyzer holds a name, a doc
// string and a Run function; a Pass hands the Run function one
// type-checked package; diagnostics are plain (position, message)
// pairs. The build environment vendors no third-party modules, so
// simlint carries this ~200-line reimplementation instead of the real
// framework. The API shape is kept deliberately close to upstream so
// the analyzers port mechanically if x/tools ever becomes available.
//
// On top of the upstream shape it adds the one piece simlint needs
// that upstream leaves to drivers: reasoned suppression directives.
// A finding is suppressed by a comment of the form
//
//	//simlint:allow <analyzer> — <reason>
//
// on the reported line or the line directly above it. The reason is
// mandatory: a bare //simlint:allow is itself reported as a "directive"
// diagnostic, as is an //simlint:allow naming an unknown analyzer or a
// directive that suppresses nothing (stale suppressions rot).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one simlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow directives. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `simlint -help`.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// A Pass is the interface between one Analyzer and one package.
type Pass struct {
	// Fset maps token positions to file/line for every file in the
	// package and its dependencies.
	Fset *token.FileSet

	// Files are the package's parsed source files, comments included.
	Files []*ast.File

	// Path is the package's import path.
	Path string

	// TypesInfo records types and object resolutions for every
	// expression and identifier in Files.
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The framework
// stamps the Analyzer name when collecting.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// directiveRe matches //simlint:allow comments. The reason separator
// accepts an em dash, a double hyphen or a single hyphen so directives
// survive editors with different typographic habits.
var directiveRe = regexp.MustCompile(`^//simlint:allow\s+([A-Za-z0-9_]*)\s*(?:(?:—|--|-)\s*(.*))?$`)

// A Directive is one parsed //simlint:allow comment.
type Directive struct {
	Analyzer string // analyzer the directive suppresses
	Reason   string // justification text; empty means the directive is invalid
	File     string // file the comment appears in
	Line     int    // line the comment appears on
	Pos      token.Pos
	used     bool
}

// ParseDirectives extracts every //simlint:allow directive from files.
func ParseDirectives(fset *token.FileSet, files []*ast.File) []*Directive {
	var ds []*Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				// Fixture files append analysistest expectations to the
				// directive comment; they are not part of the reason.
				if i := strings.Index(text, "// want"); i >= 0 {
					text = strings.TrimSpace(text[:i])
				}
				m := directiveRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				ds = append(ds, &Directive{
					Analyzer: m[1],
					Reason:   strings.TrimSpace(m[2]),
					File:     pos.Filename,
					Line:     pos.Line,
					Pos:      c.Pos(),
				})
			}
		}
	}
	return ds
}

// Suppress partitions diags into kept and suppressed findings using
// directives: a diagnostic is suppressed when a directive for its
// analyzer (with a non-empty reason) sits on the same line or the line
// immediately above. Directives consumed this way are marked used.
func Suppress(fset *token.FileSet, diags []Diagnostic, directives []*Directive) (kept, suppressed []Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, dir := range directives {
			if dir.Reason == "" || dir.Analyzer != d.Analyzer || dir.File != pos.Filename {
				continue
			}
			if dir.Line == pos.Line || dir.Line == pos.Line-1 {
				dir.used = true
				matched = true
				break
			}
		}
		if matched {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed
}

// DirectiveProblems reports malformed or stale directives as
// diagnostics from the pseudo-analyzer "directive": a missing reason, a
// name that is not a known analyzer, and — when checkUnused is set —
// a well-formed directive that suppressed nothing in this run.
func DirectiveProblems(directives []*Directive, known map[string]bool, checkUnused bool) []Diagnostic {
	var out []Diagnostic
	for _, dir := range directives {
		switch {
		case dir.Reason == "":
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      dir.Pos,
				Message:  fmt.Sprintf("bare //simlint:allow %s: suppressions must carry a reason (//simlint:allow %s — <why>)", dir.Analyzer, dir.Analyzer),
			})
		case !known[dir.Analyzer]:
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      dir.Pos,
				Message:  fmt.Sprintf("//simlint:allow names unknown analyzer %q", dir.Analyzer),
			})
		case checkUnused && !dir.used:
			out = append(out, Diagnostic{
				Analyzer: "directive",
				Pos:      dir.Pos,
				Message:  fmt.Sprintf("stale //simlint:allow %s: no %s finding on this or the next line", dir.Analyzer, dir.Analyzer),
			})
		}
	}
	return out
}

// RunAnalyzers applies each analyzer to the pass inputs, then applies
// directive suppression and directive validation. checkUnused enables
// stale-directive reporting and should be set only when every analyzer
// a directive could name is actually running (the multichecker); the
// single-analyzer analysistest harness leaves it off. The returned
// diagnostics are sorted by position for deterministic output —
// simlint holds itself to the ordering discipline it enforces.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, path string, info *types.Info, checkUnused bool) ([]Diagnostic, error) {
	var all []Diagnostic
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{
			Fset:      fset,
			Files:     files,
			Path:      path,
			TypesInfo: info,
			report: func(d Diagnostic) {
				d.Analyzer = a.Name
				all = append(all, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", path, a.Name, err)
		}
	}
	directives := ParseDirectives(fset, files)
	kept, _ := Suppress(fset, all, directives)
	kept = append(kept, DirectiveProblems(directives, known, checkUnused)...)
	sort.Slice(kept, func(i, j int) bool {
		pi, pj := fset.Position(kept[i].Pos), fset.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return kept[i].Message < kept[j].Message
	})
	return kept, nil
}
