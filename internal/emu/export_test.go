package emu

// NewReferenceEngine hands the pre-micro-op reference interpreter
// (ref_engine_test.go) to the external lockstep test, which has to live
// outside the package to import the workload suite.
var NewReferenceEngine = newReferenceEngine

// DiffWaves and DiffResults are the state comparators the differential
// tests on both sides of the package boundary share.
var (
	DiffWaves   = diffWaves
	DiffResults = diffResults
)

// SetMemoGuard turns the unique-count memo's guard on or off and zeroes its
// tallies; MemoGuardCounts reads them. On, every memo hit recounts.
func SetMemoGuard(on bool) {
	memoGuard.on, memoGuard.hits, memoGuard.stale = on, 0, 0
}

func MemoGuardCounts() (hits, stale int) { return memoGuard.hits, memoGuard.stale }
