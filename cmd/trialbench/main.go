// Command trialbench regenerates the paper-reproduction experiments
// E1–E22 (see internal/experiments for the index) and prints their tables, and —
// with -json — runs the paired evaluator-vs-engine benchmarks and emits
// the machine-readable BENCH_engine.json that CI archives per commit.
//
// Usage:
//
//	trialbench                  # all fast (witness) experiments
//	trialbench -all             # everything, including the perf sweeps
//	trialbench -exp E4,E12      # a specific subset
//	trialbench -json            # write BENCH_engine.json
//	trialbench -json -out - -min-speedup 1.2
//	                            # JSON to stdout; exit 1 if any gated
//	                            # reachability workload is below 1.2x
//	                            # (rows that declare gate_min_procs only
//	                            # gate on legs with that many cores)
//	trialbench -json -scale     # include the scale-tier workloads:
//	                            # triangle-count (leapfrog triejoin vs
//	                            # the binary hash-join cascade, gated at
//	                            # >= 1.0x on every leg) and the
//	                            # million-triple social-join-1M (vs the
//	                            # reference Evaluator, gated at >= 1.5x
//	                            # on legs with >= 4 cores)
//	trialbench -json -procs 4   # pin GOMAXPROCS for this run — the CI
//	                            # bench matrix sweeps 1/4/all-cores legs
//	trialbench -json -trace     # additionally dump the execution span
//	                            # tree of every workload below 1.0x
//	                            # speedup — per-operator timings show
//	                            # where the engine's time went
//
// Each workload's JSON record carries an "operator_ms" breakdown: the
// exclusive per-operator milliseconds of one traced engine run
// (internal/obs spans), measured after the timed runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "comma-separated experiment IDs (e.g. E4,E12)")
		all        = flag.Bool("all", false, "run every experiment, including perf sweeps")
		format     = flag.String("format", "text", "output format: text or markdown")
		jsonBench  = flag.Bool("json", false, "run the engine-vs-evaluator benchmarks and write them as JSON")
		out        = flag.String("out", "BENCH_engine.json", "with -json: output path ('-' for stdout)")
		minSpeedup = flag.Float64("min-speedup", 0, "with -json: fail unless every gated (reachability) workload reaches this engine speedup")
		scale      = flag.Bool("scale", false, "with -json: include the scale-tier workloads (triangle-count, social-join-1M) — minutes, not seconds")
		procs      = flag.Int("procs", 0, "if > 0, set GOMAXPROCS to this before measuring (the CI bench matrix's 1/4/all legs)")
		trace      = flag.Bool("trace", false, "with -json: dump the execution span tree of every workload below 1.0x speedup (where the time went)")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	var err error
	if *jsonBench {
		err = runJSON(*out, *minSpeedup, *scale, *trace)
	} else {
		err = run(*exp, *all, *format)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trialbench:", err)
		os.Exit(1)
	}
}

// runJSON measures the benchmark workloads, writes the report, and
// enforces the regression gates via BenchReport.GateFailures.
func runJSON(out string, minSpeedup float64, scale, trace bool) error {
	rep, err := experiments.RunBench(experiments.BenchOptions{Scale: scale})
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	for _, b := range rep.Workloads {
		gate := ""
		if b.Gated {
			gate = " [gated]"
			if b.GateMinProcs > 0 {
				gate = fmt.Sprintf(" [gated >=%d cores]", b.GateMinProcs)
			}
		}
		vs := ""
		if b.Baseline != "" {
			vs = " vs " + b.Baseline
		}
		fmt.Fprintf(os.Stderr, "%-20s %-10s lang=%-8s %8d triples -> %8d  speedup %.2fx%s%s\n",
			b.Name, b.Family, b.Lang, b.Triples, b.ResultSize, b.Speedup, gate, vs)
		// -trace: for a workload that lost to its baseline, show WHERE
		// the engine spent the time (the social-join class of question).
		if trace && b.Speedup < 1.0 {
			if sp := rep.Trace(b.Name); sp != nil {
				fmt.Fprintf(os.Stderr, "  trace (%s below 1.0x):\n", b.Name)
				for _, line := range strings.Split(strings.TrimSuffix(sp.Tree(), "\n"), "\n") {
					fmt.Fprintf(os.Stderr, "    %s\n", line)
				}
			}
		}
	}
	if fails := rep.GateFailures(minSpeedup); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "gate failure:", f)
		}
		return fmt.Errorf("speedup regression: %d gate(s) failed at GOMAXPROCS=%d", len(fails), rep.GOMAXPROCS)
	}
	return nil
}

func run(exp string, all bool, format string) error {
	if format != "text" && format != "markdown" {
		return fmt.Errorf("unknown -format %q (want text or markdown)", format)
	}
	var runners []experiments.Runner
	switch {
	case exp != "":
		for _, id := range strings.Split(exp, ",") {
			id = strings.TrimSpace(id)
			r := experiments.ByID(id)
			if r == nil {
				return fmt.Errorf("unknown experiment %q (known: E1..E22)", id)
			}
			runners = append(runners, *r)
		}
	default:
		for _, r := range experiments.All() {
			if r.Perf && !all {
				continue
			}
			runners = append(runners, r)
		}
	}
	failed := 0
	for _, r := range runners {
		rep := r.Run()
		if format == "markdown" {
			fmt.Println(rep.Markdown())
		} else {
			fmt.Println(rep)
		}
		if !rep.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
