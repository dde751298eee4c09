// Command perfbench is the repository benchmark: three workloads that
// reproduce how users run the paper's experiments — n = 10⁶ streaming
// connectivity trials, the Figure 1 sweep, and k-connectivity jobs against
// an in-process sweepd — each measured end to end (untraced run, --trace 0)
// or layer by layer (traced run, --trace 1), with every output checked.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload stream-n1e6 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// Lines before it give the environment, sample counts and check results. A
// wrong result prints correct=false and exits 1; a run that cannot complete
// exits 2 without a result line.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// workload runs one named workload and fills the report.
type workload func(ctx context.Context, rc runConfig, rep *report) error

var workloads = map[string]workload{
	"stream-n1e6":  runStream,
	"figure1-grid": runFigure1,
	"sweepd-kconn": runSweepd,
}

// runConfig is what every workload receives: the workload seed, the run
// length, the trace switch, a scratch directory and the workload's scale.
// Tests pass a tiny scale through the same code path.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	dir     string
	tiny    bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: stream-n1e6, figure1-grid or sweepd-kconn")
	seed := fs.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 20, "measured run length in seconds (sets the fixed amount of work)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	return execute(*name, wl, rc, stdout, stderr)
}

// execute runs the workload and prints its report; it is the part of run
// the tests drive at tiny scale.
func execute(name string, wl workload, rc runConfig, stdout, stderr io.Writer) int {
	rep := newReport()
	printEnv(stdout, name, rc)
	if err := wl(context.Background(), rc, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 2
	}
	line, err := rep.render(rc.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 2
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	fmt.Fprintln(stdout, line)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set so far in MiB (getrusage
// ru_maxrss, which Linux reports in KiB). Workloads read it when their
// measured phase ends, before the output checks allocate.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// report collects one run's metrics, counts, notes and failed checks.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
	problems          []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check; it returns ok for chaining.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line: every end-to-end metric of the registry
// (trace off) or every per-layer metric (trace on). An end-to-end metric a
// workload did not set is a bug; a per-layer metric of a layer the workload
// does not run reads 0 (see README.md).
func (r *report) render(trace bool) (string, error) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	metrics := make(map[string]metricValue, len(list))
	for _, m := range list {
		v, ok := r.values[m.Name]
		if !ok && !trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// scratchFile returns a path inside the run's scratch directory.
func (rc runConfig) scratchFile(name string) string { return filepath.Join(rc.dir, name) }
