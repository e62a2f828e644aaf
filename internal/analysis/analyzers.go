package analysis

// All returns every analyzer the suite ships, in the order they are
// listed by `spamlint -list`.
func All() []*Analyzer {
	return []*Analyzer{SliceExport, FloatCmp, SpanEnd, MetricName, LockBal}
}
