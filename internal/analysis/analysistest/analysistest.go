// Package analysistest is the golden-file harness for cqlint analyzer
// unit tests, mirroring golang.org/x/tools/go/analysis/analysistest on
// the standard library only: it loads fixture packages from a
// testdata/src root, runs one analyzer with //lint:allow suppression
// applied, and compares the diagnostics against `// want "regexp"`
// comments in the fixture sources.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"cqjoin/internal/analysis"
)

// Run loads the named fixture packages from srcRoot, runs a over them,
// and reports any mismatch between diagnostics and want comments as test
// errors. Fixture packages may import fake dependency packages from the
// same srcRoot under their production import paths (e.g.
// cqjoin/internal/chord), which is how send resolution is exercised
// without loading the real tree.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	loader, err := analysis.NewLoader("", srcRoot)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	var pkgs []*analysis.Package
	for _, path := range pkgPaths {
		p, err := loader.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	// The analyzer runs over the packages named by the test; the call
	// graph spans every loaded package, fixture dependencies included.
	prog := analysis.NewProg(loader, pkgs)
	diags, err := prog.Run([]*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, loader.Fset, pkgs)
	matched := make(map[*want]bool)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		var hit *want
		for _, w := range wants[key] {
			if !matched[w] && w.re.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
			continue
		}
		matched[hit] = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
}

type want struct{ re *regexp.Regexp }

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)
var wantStrRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses `// want "re" "re2"` comments, keyed by file:line.
// Scanning the raw source lines (rather than AST comments) keeps the
// harness independent of comment attachment rules.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatalf("read %s: %v", name, err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				m := wantRE.FindStringSubmatch(line)
				if m == nil {
					continue
				}
				key := fmt.Sprintf("%s:%d", name, i+1)
				for _, s := range wantStrRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(s[1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, s[1], err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}
	return wants
}
