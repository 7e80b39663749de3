// Package analysistest runs one simlint analyzer over fixture packages
// under testdata/src and checks its diagnostics against expectations
// embedded in the fixtures, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// An expectation is a comment of the form
//
//	// want "regexp" `another regexp`
//
// on the same line as the code that should be flagged. Each regexp
// must match the message of exactly one diagnostic reported on that
// line; diagnostics with no expectation and expectations with no
// diagnostic both fail the test. Directive suppression runs exactly as
// in the real driver, so fixtures can assert both that a reasoned
// //simlint:allow silences a finding (no want on the line) and that a
// bare or unknown-name directive is itself reported (a want matching
// the "directive" pseudo-analyzer's message).
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fsdinference/tools/simlint/analysis"
	"fsdinference/tools/simlint/loader"
)

// expectation is one want-regexp anchored to a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRe = regexp.MustCompile(`// want (.*)$`)
var strRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads each fixture package dir under filepath.Join(testdata,
// "src") and applies a to it, comparing diagnostics to // want
// expectations.
//
//simlint:allow testonly — the harness of every pass's fixture test, which live in other packages
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	l := loader.New()
	for _, pkgPath := range pkgs {
		dir := filepath.Join(testdata, "src", pkgPath)
		pkg, err := l.LoadDir(dir, pkgPath)
		if err != nil {
			t.Errorf("%s: %v", pkgPath, err)
			continue
		}
		diags, err := analysis.RunAnalyzers([]*analysis.Analyzer{a}, pkg.Fset, pkg.Files, pkg.Path, pkg.TypesInfo, false)
		if err != nil {
			t.Errorf("%s: %v", pkgPath, err)
			continue
		}
		expects := collectExpectations(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !claim(expects, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", pos.Filename, pos.Line, d.Message, d.Analyzer)
			}
		}
		for _, e := range expects {
			if !e.met {
				t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.raw)
			}
		}
	}
}

// claim marks the first unmet expectation on (file, line) whose regexp
// matches message.
func claim(expects []*expectation, file string, line int, message string) bool {
	for _, e := range expects {
		if !e.met && e.file == file && e.line == line && e.re.MatchString(message) {
			e.met = true
			return true
		}
	}
	return false
}

// collectExpectations parses every // want comment in the package. The
// expectation anchors to the line the comment starts on.
func collectExpectations(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range strRe.FindAllString(m[1], -1) {
					pattern := lit
					if strings.HasPrefix(lit, "`") {
						pattern = strings.Trim(lit, "`")
					} else {
						var err error
						pattern, err = strconv.Unquote(lit)
						if err != nil {
							t.Errorf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
							continue
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
						continue
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pattern})
				}
			}
		}
	}
	if len(out) == 0 {
		// A fixture with zero expectations usually means a typo in the
		// want syntax rather than a genuinely clean package; fixtures
		// that are intentionally clean state it.
		clean := false
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.Contains(c.Text, "simlint-fixture: clean") {
						clean = true
					}
				}
			}
		}
		if !clean {
			t.Errorf("%s: fixture has no // want expectations and no `simlint-fixture: clean` marker", pkg.Path)
		}
	}
	return out
}
