package analysis

// Suite is the full analyzer set cmd/invalidb-vet runs, in reporting
// order. Each analyzer guards one invariant the paper's scalability
// argument depends on; see DESIGN.md §9 for the mapping.
var Suite = []*Analyzer{
	Directive,
	HotpathAlloc,
	LockBlock,
	CoarseClock,
	EpochCapture,
	GoroLeak,
}
