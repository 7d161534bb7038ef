// Command bench is the repository's performance benchmark: five workloads,
// each run in a process of its own with the shipped defaults, with answers
// checked in every run. README.md says what the workloads and metrics are
// and how to read the output.
//
// Run it from this directory (run.sh does, from anywhere):
//
//	go run .                          every workload, end-to-end metrics
//	go run . -trace 1                 ... and then the per-layer metrics
//	go run . -workload serve-warm     one workload
//	go run . -selfcheck               every workload twice, compared
//	go run . -compare a.json b.json   two saved result sets, compared
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// detailPrefix marks the line on which a workload's process hands its whole
// report to the parent; the contract's result line follows it.
const detailPrefix = "detail "

func main() {
	var (
		opt       options
		workload  = flag.String("workload", "", "run this one workload in this process (default: every workload, each in its own process)")
		trace     = flag.Int("trace", 0, "1 records spans and runs the layer probes, printing the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
		cmp       = flag.Bool("compare", false, "compare the two saved result sets named as arguments")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json")
		detail    = flag.Bool("detail", false, "print the whole report as JSON before the result line, for the parent process")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seeds the census order, the arrivals and the variable draws")
	flag.Float64Var(&opt.seconds, "seconds", float64(runSeconds), "how long each workload measures")
	flag.StringVar(&opt.outDir, "out", "out", "where span files and saved results go")
	flag.BoolVar(&opt.updateGolden, "update-golden", false, "rewrite golden/ from this run's answers")
	flag.Parse()
	opt.trace = *trace != 0

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *cmp:
		err = compareFiles(flag.Args())
	case *selfcheck:
		err = selfCheck(opt)
	case *workload != "":
		err = runOne(*workload, opt, *detail)
	default:
		err = runAll(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("answer check failed")

// runOne runs one workload in this process and ends standard output with
// the result line, preceded by the detail line when a parent asked for it.
func runOne(name string, opt options, detail bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if opt.seconds < 1 {
		return fmt.Errorf("-seconds %g: need at least 1", opt.seconds)
	}
	r := newRun(w, opt)
	if err := w.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep := r.report()
	rep.print(os.Stdout)
	if r.rec != nil {
		path, err := r.rec.write(opt.outDir, name, rep.Stamp)
		if err != nil {
			return err
		}
		fmt.Printf("  %d spans in %s\n", len(r.rec.spans), path)
	}
	if detail {
		whole, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Printf("%s%s\n", detailPrefix, whole)
	}
	line, err := rep.resultLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// spawn runs one workload in a child process, passes its human-readable
// output through and returns the report from its detail line.
func spawn(name string, opt options) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if opt.trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", traceArg, "-out", opt.outDir, "-detail")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	var rep *report
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			rep = &report{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, fmt.Errorf("%s: bad detail line: %w", name, err)
			}
			break
		}
		fmt.Println(line)
	}
	if runErr != nil {
		return rep, fmt.Errorf("%s: %w", name, runErr)
	}
	if rep == nil {
		return nil, fmt.Errorf("%s: no detail line", name)
	}
	return rep, nil
}

// runSet runs every workload, each in its own process.
func runSet(opt options) ([]*report, error) {
	var reps []*report
	for _, w := range workloads {
		rep, err := spawn(w.Name, opt)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func runAll(opt options) error {
	traced := opt.trace
	opt.trace = false
	reps, err := runSet(opt)
	if err != nil {
		return err
	}
	path, err := saveReports(opt.outDir, "results.json", reps)
	if err != nil {
		return err
	}
	fmt.Println("end-to-end results saved to", path)
	if traced {
		opt.trace = true
		if _, err := runSet(opt); err != nil {
			return err
		}
	}
	return nil
}

func saveReports(dir, name string, reps []*report) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []*report
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// compareSets prints, per workload, b against a, and returns how many
// end-to-end metrics are worse by more than their bound. Workloads whose
// stamps differ in GOMAXPROCS, seed or sizes are reported as incomparable
// and judged no further.
func compareSets(w io.Writer, a, b []*report) int {
	byName := make(map[string]*report)
	for _, rep := range b {
		byName[rep.Workload] = rep
	}
	bad := 0
	for _, ra := range a {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%s: only in the first set\n", ra.Workload)
			continue
		}
		regressions, err := compare(ra, rb)
		if err != nil {
			fmt.Fprintln(w, err)
			continue
		}
		fmt.Fprintln(w, ra.Workload)
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			verdict := "better"
			by := -worseBy(d, va, vb)
			if by < 0 {
				verdict, by = "worse", -by
			}
			fmt.Fprintf(w, "  %-16s %12.6g %s  %12.6g %s %-6s %5.1f%% %s\n", d.Name,
				va, passSpread(ra, d.Name), vb, passSpread(rb, d.Name), d.Unit, 100*by, verdict)
		}
		for _, line := range regressions {
			fmt.Fprintln(w, "  REGRESSION", line)
		}
		bad += len(regressions)
	}
	return bad
}

// passSpread renders a metric's spread between passes, where it has passes.
func passSpread(rep *report, name string) string {
	sp, ok := rep.Spread[name]
	if !ok {
		return "              "
	}
	return fmt.Sprintf("(spread %4.1f%%)", 100*sp)
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare takes two saved result files")
	}
	a, err := loadReports(paths[0])
	if err != nil {
		return err
	}
	b, err := loadReports(paths[1])
	if err != nil {
		return err
	}
	if bad := compareSets(os.Stdout, a, b); bad > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", bad)
	}
	return nil
}

// selfCheck runs the whole set twice and fails when the same code
// disagrees with itself, in either direction, by more than a bound.
func selfCheck(opt options) error {
	opt.trace = false
	var sets [2][]*report
	for i := range sets {
		fmt.Printf("== set %d\n", i+1)
		reps, err := runSet(opt)
		if err != nil {
			return err
		}
		sets[i] = reps
		if _, err := saveReports(opt.outDir, fmt.Sprintf("selfcheck-%d.json", i+1), reps); err != nil {
			return err
		}
	}
	fmt.Println("== set 2 against set 1")
	bad := compareSets(os.Stdout, sets[0], sets[1])
	bad += compareSets(io.Discard, sets[1], sets[0])
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d end-to-end metrics differ between the sets by more than their bound", bad)
	}
	fmt.Println("selfcheck passed: every end-to-end metric agrees within its bound")
	return nil
}

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func manifest() manifestFile {
	m := manifestFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	m.EndToEnd, m.PerLayer = endToEnd, perLayer
	return m
}

func printManifest(w io.Writer) error {
	data, err := json.MarshalIndent(manifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
