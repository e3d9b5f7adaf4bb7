package analysis

// All returns the full cqlint suite, seven analyzers, in reporting order. The
// first four are the per-function PR-4 analyzers; lockorder, goroleak and
// poolsafe are the interprocedural v2 additions built on the call graph.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		SendUnderLockAnalyzer,
		ObsRegisterAnalyzer,
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
		PoolSafeAnalyzer,
	}
}
