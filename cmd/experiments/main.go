// Command experiments regenerates the paper's tables and figures over the
// synthetic benchmark suite. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig6 -scale 0.01 -threads 16
//	experiments -exp table1 -bench tomcat,_202_jess
//	experiments -exp bench -json            # also writes BENCH_runs.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"parcfl/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", fmt.Sprintf("experiment to run: one of %v", experiments.Names()))
	scale := flag.Float64("scale", 0.01, "fraction of the paper's query census to generate")
	budget := flag.Int("budget", 75000, "per-query step budget B")
	threads := flag.Int("threads", 16, "maximum worker count")
	bench := flag.String("bench", "", "comma-separated benchmark names (default: all 20)")
	jsonOn := flag.Bool("json", false, "write the machine-readable report (bench experiment)")
	jsonOut := flag.String("json-out", "BENCH_runs.json", "path for the -json report (overwritten)")
	rev := flag.String("rev", "", "git revision to stamp the report with (default: auto-detect)")
	flag.Parse()

	opts := experiments.Options{
		Scale:   *scale,
		Budget:  *budget,
		Threads: *threads,
		Out:     os.Stdout,
	}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *jsonOn {
		opts.JSONPath = *jsonOut
	}
	opts.GitRev = *rev
	if opts.GitRev == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			opts.GitRev = strings.TrimSpace(string(out))
		}
	}
	if err := experiments.ByName(*exp, opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
