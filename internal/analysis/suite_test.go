package analysis_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cqjoin/internal/analysis"
)

var wantRE = regexp.MustCompile(`// want "(.*)"\s*$`)

// TestLockOrderAnalyzer runs lockorder over its golden fixture,
// testdata/src/lockorder/a: each finding must match the `// want "regexp"`
// comment on its line, and each want comment must be matched.
func TestLockOrderAnalyzer(t *testing.T) {
	loader, err := analysis.NewLoader("", "testdata/src")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.Load("lockorder/a")
	if err != nil {
		t.Fatalf("load lockorder/a: %v", err)
	}
	wants := make(map[string][]*regexp.Regexp) // "file:line" -> patterns not yet matched
	for _, f := range pkg.Files {
		name := loader.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				key := fmt.Sprintf("%s:%d", name, i+1)
				wants[key] = append(wants[key], regexp.MustCompile(m[1]))
			}
		}
	}
	for _, f := range analysis.NewCallGraph(loader).Findings() {
		pos := loader.Fset.Position(f.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		i := slices.IndexFunc(wants[key], func(re *regexp.Regexp) bool { return re.MatchString(f.Message) })
		if i < 0 {
			t.Errorf("%s: unexpected finding: %s", key, f.Message)
			continue
		}
		wants[key] = slices.Delete(wants[key], i, i+1)
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("%s: no finding matching %q", key, re)
		}
	}
}

// TestSuiteCleanOnTree is lockorder's gate: over the whole module it must
// report nothing.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := analysis.NewLoader("../..", "")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	for _, f := range analysis.NewCallGraph(loader).Findings() {
		t.Errorf("%s: %s", loader.Fset.Position(f.Pos), f.Message)
	}
}

// TestLoaderResolvesStdlibOffline pins the property lockorder depends on:
// the loader type-checks module packages (and their stdlib closure)
// without network access or pre-compiled export data.
func TestLoaderResolvesStdlibOffline(t *testing.T) {
	loader, err := analysis.NewLoader("../..", "")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.Load("cqjoin/internal/wire")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatalf("incomplete package: %+v", pkg)
	}
	if pkg.Types.Scope().Lookup("Buffer") == nil {
		t.Fatalf("wire.Buffer not found in type-checked package")
	}
}
