package trial

// Helpers of the internal tests, shared with the external package
// trial_test (optimize_test.go).
var (
	RandStore = randStore
	RandExprT = randExprT
	MustEval  = mustEval
)
