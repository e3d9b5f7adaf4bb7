package analysis_test

import (
	"testing"

	"cqjoin/internal/analysis"
)

// fixtureGraph loads the callgraph fixture packages and builds the
// interprocedural graph over them.
func fixtureGraph(t *testing.T) *analysis.CallGraph {
	t.Helper()
	loader, err := analysis.NewLoader("", "testdata/src")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	if _, err := loader.Load("callgraph/a"); err != nil {
		t.Fatalf("load callgraph/a: %v", err)
	}
	return analysis.NewCallGraph(loader)
}

func node(t *testing.T, g *analysis.CallGraph, key string) *analysis.FuncNode {
	t.Helper()
	n := g.NodeByKey(key)
	if n == nil {
		t.Fatalf("no node for %s", key)
	}
	return n
}

func hasKey(keys []string, want string) bool {
	for _, k := range keys {
		if k == want {
			return true
		}
	}
	return false
}

func TestCallGraphRecursion(t *testing.T) {
	g := fixtureGraph(t)
	if keys := node(t, g, "callgraph/a.fact").CalleeKeys(); !hasKey(keys, "callgraph/a.fact") {
		t.Errorf("fact callees = %v, want self-edge", keys)
	}
	if keys := node(t, g, "callgraph/a.even").CalleeKeys(); !hasKey(keys, "callgraph/a.odd") {
		t.Errorf("even callees = %v, want odd", keys)
	}
	if keys := node(t, g, "callgraph/a.odd").CalleeKeys(); !hasKey(keys, "callgraph/a.even") {
		t.Errorf("odd callees = %v, want even", keys)
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g := fixtureGraph(t)
	keys := node(t, g, "callgraph/a.dispatch").CalleeKeys()
	for _, want := range []string{"callgraph/a.impl1.do", "callgraph/a.impl2.do"} {
		if !hasKey(keys, want) {
			t.Errorf("dispatch callees = %v, want %s", keys, want)
		}
	}
}

func TestCallGraphMethodValues(t *testing.T) {
	g := fixtureGraph(t)
	if keys := node(t, g, "callgraph/a.takeValue").CalleeKeys(); !hasKey(keys, "callgraph/a.worker.step") {
		t.Errorf("takeValue callees = %v, want worker.step value edge", keys)
	}
}

func TestCallGraphLockSummaries(t *testing.T) {
	g := fixtureGraph(t)
	step := node(t, g, "callgraph/a.worker.step")
	if nets := step.NetLockNames(g); len(nets) != 1 || nets["worker.mu"] != 0 {
		t.Errorf("step net locks = %v, want worker.mu balanced at 0", nets)
	}
	for _, key := range []string{"callgraph/a.helper", "callgraph/a.lockChain"} {
		if acq := node(t, g, key).TransitiveAcquireNames(g); len(acq) != 1 || acq[0] != "worker.mu" {
			t.Errorf("%s transitive acquires = %v, want [worker.mu]", key, acq)
		}
	}
}
