// Command perfbench is the repository's benchmark: one command runs a
// workload, checks every output against answers known by construction,
// and prints every metric by name and unit as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload mesh-step --seed 1 --seconds 30 --trace 0
//
// Workloads: mesh-step, protocols, daemon-mixed (see README.md). With
// --trace 0 the run reports the end-to-end metrics with tracing off; with
// --trace 1 it reports the per-layer metrics, timed around calls into each
// module's public functions and read from the engines' own spans and
// counters, plus the overhead of tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run parameters shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input to smoke-test size; only the package tests
	// set it.
	tiny bool
	// workdir holds the run's scratch files (the daemon's ledger).
	workdir string
}

// report accumulates one run's outcome. An operation whose output
// disagrees with its known answer is counted in failed; a whole-run check
// that fails (closed-form state counts, refinement agreement, ledger
// replay) makes the run incorrect.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// op records one attempted operation; a non-empty fault marks it failed.
func (r *report) op(fault string) {
	r.attempted++
	if fault != "" {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", fault)
		}
	}
}

// wrong records a failed whole-run check.
func (r *report) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
}

func (r *report) result() result {
	return result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options, *report) error{
	"mesh-step":    runMeshStep,
	"protocols":    runProtocols,
	"daemon-mixed": runDaemonMixed,
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics untraced")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	workdir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep := newReport()
	err = run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: workdir}, rep)
	if rmErr := os.RemoveAll(workdir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", workdir, rmErr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
