package analysis

// All returns the full cqlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
	}
}
