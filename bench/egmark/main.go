// Command egmark is the repository's benchmark: four workloads against
// the real egserve binary (and one against the bare kernel), a ledger
// of what each layer costs, answer checks, and a comparator for two
// sets of results. BENCHMARK.json at the repository root names it;
// README.md next to this file is the glossary.
//
// Usage (from the repository root):
//
//	bash bench/egmark/run.sh -seed S [-workload W] [-seconds N] [-trace 0|1] [-out FILE]
//	bash bench/egmark/run.sh -check A.json B.json
//
// Without -workload all four run in turn. With one workload the last
// line of standard output is the JSON object the driver's contract
// asks for.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		root     = flag.String("root", ".", "repository root (run.sh passes it)")
		workload = flag.String("workload", "", "one of hot-read, search-cold, live-mixed, kernel-fig5 (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: same seed, same graphs, requests and events")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and the layer ledger instead of the timed repetitions")
		quick    = flag.Bool("quick", false, "smoke shape: one repetition, one set-up")
		out      = flag.String("out", "", "also write the full result set to FILE (what -check reads)")
		check    = flag.Bool("check", false, "compare two result sets: egmark -check A.json B.json")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it, and exit")
	)
	flag.Parse()
	if *emit {
		b, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "egmark:", err)
			os.Exit(2)
		}
		os.Stdout.Write(b) //nolint:errcheck // stdout
		return
	}
	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: egmark -check A.json B.json")
			os.Exit(2)
		}
		worse, err := checkFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "egmark:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	os.Exit(benchmark(*root, *workload, *out, runConfig{
		seed: *seed, seconds: *seconds, trace: *trace != 0,
		reps: pick(*quick, 1, 5), setups: pick(*quick || *trace != 0, 1, 3),
	}))
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// benchmark runs the named workload (or all four) and returns the
// process exit code: non-zero when anything could not run or any
// answer check failed.
func benchmark(root, workload, out string, cfg runConfig) int {
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "egmark: -seconds must be positive")
		return 2
	}
	h, err := newHarness(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "egmark:", err)
		return 2
	}
	defer h.cleanup()
	if err := h.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "egmark:", err)
		return 2
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	var results []*result
	code := 0
	for _, name := range names {
		res, err := h.run(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "egmark:", err)
			return 2
		}
		res.print()
		results = append(results, res)
		if !res.Correct {
			code = 1
		}
	}
	if out != "" {
		if err := writeResults(out, results); err != nil {
			fmt.Fprintln(os.Stderr, "egmark:", err)
			return 2
		}
	}
	if workload != "" {
		line, err := results[0].driverLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "egmark:", err)
			return 2
		}
		fmt.Println(string(line))
	}
	return code
}
