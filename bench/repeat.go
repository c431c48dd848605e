package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeatRuns is -repeat N: the workload (or all four) N times, each in a
// fresh child process on its own seed, then per end-to-end metric the
// median, the quartiles and the two spreads that matter: the
// interquartile range as a share of the median, which is what the driver
// holds against the metric's bound, and max/min. It returns the exit
// code: 1 if a child failed or a spread exceeded its bound.
func repeatRuns(o options) int {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	code := 0
	for _, name := range names {
		runs := map[string][]float64{}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-out", o.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				logf("bench: %s seed %d: %v\n%s", name, seed, err, out)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				logf("bench: %s seed %d: last line is not a result: %v", name, seed, err)
				return 1
			}
			for k, v := range res.Metrics {
				runs[k] = append(runs[k], v.Value)
			}
			logf("%s seed %d: %d ops, %d failed", name, seed, res.Attempted, res.Failed)
		}
		fmt.Printf("%s, %d runs, seeds %d..%d\n", name, o.repeat, o.seed, o.seed+int64(o.repeat)-1)
		fmt.Printf("%-24s %12s %12s %12s %9s %9s %7s\n", "metric", "q1", "median", "q3", "iqr/med", "max/min", "bound")
		for _, d := range endToEnd {
			xs := runs[d.name]
			q1, med, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			flag := ""
			switch {
			case d.name == "setup_s":
				// The driver holds set-up time to its bound only between medians.
			case spread > d.bound:
				flag = "  EXCEEDS BOUND"
				code = 1
			case spread > d.bound/3:
				flag = "  above a third of the bound"
			}
			fmt.Printf("%-24s %12.4f %12.4f %12.4f %8.2f%% %9.4f %6.0f%%%s\n", d.name, q1, med, q3,
				100*spread, quantile(xs, 1)/quantile(xs, 0), 100*d.bound, flag)
		}
	}
	return code
}

// quartiles are the cut points of Python's statistics.quantiles(xs, n=4)
// (the exclusive method), which is how the driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Position k*(n+1)/4 in 1-based ranks, interpolated and clamped.
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = max(1, min(n-1, j))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}
