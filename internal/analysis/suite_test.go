package analysis_test

import (
	"testing"

	"cqjoin/internal/analysis"
	"cqjoin/internal/analysis/analysistest"
)

// The analyzer suites run against golden fixtures under
// testdata/src, each with positive (diagnostic expected) and suppressed
// (//lint:allow) cases.

func TestLockOrderAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.LockOrderAnalyzer, "lockorder/a")
}

// TestGoroLeakAnalyzer runs the goroleak fixture under a fixture path
// inside the analyzer's production scope (a transport subpackage), so the
// same filter that gates the real tree gates the fixture.
func TestGoroLeakAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.GoroLeakAnalyzer,
		"cqjoin/internal/transport/goroleakfix")
}

// TestSuiteCleanOnTree is the in-repo form of the CI gate: the full suite
// over the whole module must produce zero diagnostics. Any regression a
// developer introduces fails `go test` before it ever reaches the cqlint
// CI job.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := analysis.NewLoader("../..", "")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	prog := analysis.NewProg(loader, pkgs)
	diags, err := prog.Run(analysis.All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", loader.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestLoaderResolvesStdlibOffline pins the property the whole suite
// depends on: the loader type-checks module packages (and their stdlib
// closure) without network access or pre-compiled export data.
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
