package optimizer_test

import (
	"fmt"

	"repro/internal/optimizer"
	"repro/internal/trial"
)

// ExampleOptimizer_Optimize rewrites an expression and reports what the
// rules did: the duplicate union arm drops by idempotence, leaving the
// selection over a single scan.
func ExampleOptimizer_Optimize() {
	x, err := trial.Parse("sigma[1=2](union(E, E))")
	if err != nil {
		panic(err)
	}
	out, trace := optimizer.New(nil).Optimize(x)
	fmt.Println(out)
	fmt.Println(trace)
	// Output:
	// sigma[1=2](E)
	// rewrites[v2]: dedupe-union x1 (4 -> 2 nodes, 2 passes)
}
