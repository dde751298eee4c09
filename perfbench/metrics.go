package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric of the registry; BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"result_s_p50", "s", "lower"},
}

// perLayer are the traced run's metrics, named <layer>.<metric> after the
// repository's packages. A layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"keys.assign_s", "s", "lower"},
	{"keys.assign_ns_per_key", "ns", "lower"},
	{"keys.reset_s", "s", "lower"},
	{"keys.intersect_ns_per_pair", "ns", "lower"},
	{"keys.pairs_tested", "count", "lower"},
	{"keys.accept_ratio", "ratio", "higher"},
	{"keys.dense_frac", "ratio", "higher"},
	{"channel.emit_ns_per_pair", "ns", "lower"},
	{"channel.consumed_frac", "ratio", "lower"},
	{"graphalgo.uf_ns_per_edge", "ns", "lower"},
	{"graphalgo.merge_ratio", "ratio", "higher"},
	{"graphalgo.kconn2_s_p50", "s", "lower"},
	{"graphalgo.kconn3_s_p50", "s", "lower"},
	{"wsn.deploy_csr_s_p50", "s", "lower"},
	{"wsn.allocs_per_trial", "count", "lower"},
	{"wsn.alloc_bytes_per_trial", "B", "lower"},
	{"wsn.unattributed_s", "s", "lower"},
	{"experiment.point_s_p50", "s", "lower"},
	{"experiment.point_s_max", "s", "lower"},
	{"experiment.shard_busy_frac", "ratio", "higher"},
	{"experiment.journal_append_us_p50", "us", "lower"},
	{"experiment.journal_bytes_per_point", "B", "lower"},
	{"sweepserve.submit_s_p50", "s", "lower"},
	{"sweepserve.queue_s_p50", "s", "lower"},
	{"sweepserve.run_miss_s_p50", "s", "lower"},
	{"sweepserve.run_hit_s_p50", "s", "lower"},
	{"sweepserve.result_s_p50", "s", "lower"},
	{"sweepserve.hit_job_s_p50", "s", "lower"},
	{"sweepserve.hit_job_s_tail", "s", "lower"},
	{"sweepserve.hit_job_tail_pct", "%", "higher"},
	{"sweepserve.jobs_per_s", "1/s", "higher"},
	{"sweepserve.hit_ratio", "ratio", "higher"},
	{"sweepserve.points_computed", "count", "lower"},
	{"sweepserve.coalesced", "count", "higher"},
	{"sweepserve.journal_bytes", "B", "lower"},
	{"sweepserve.restore_s", "s", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0 (a metric must stay a finite number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// tail returns the highest whole percentile that still has at least ten
// samples beyond it, and the sample at that rank. ok is false below 11
// samples, where no percentile qualifies.
func tail(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// Nearest rank: at least n−⌈pct·n/100⌉ ≥ 10 samples lie above it.
	rank := int(math.Ceil(float64(pct)*float64(n)/100)) - 1
	if rank < 0 {
		rank = 0
	}
	return pct, s[rank], true
}

// medianOfSetups runs setup k times and returns the last setup's value and
// the median duration in seconds. Every earlier value is closed and dropped,
// and the heap collected, before the next setup starts, so setups neither
// overlap in memory nor inherit each other's garbage.
func medianOfSetups[T any](k int, setup func() (T, float64, error), closeFn func(T)) (T, float64, error) {
	var durs []float64
	for i := 0; ; i++ {
		v, d, err := setup()
		if err != nil {
			return v, 0, err
		}
		durs = append(durs, d)
		if i == k-1 {
			return v, median(durs), nil
		}
		closeFn(v)
		var zero T
		v = zero
		runtime.GC()
	}
}

// printEnv records the environment next to every result: toolchain,
// parallelism, CPU model and cache sizes.
func printEnv(w io.Writer, name string, rc runConfig) {
	fmt.Fprintf(w, "workload: %s seed=%d seconds=%d trace=%t\n", name, rc.seed, rc.seconds, rc.trace)
	fmt.Fprintf(w, "env: go=%s GOMAXPROCS=%d nproc=%d os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "env: cpu=%q caches=%s\n", cpuModel(), cacheSizes())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's data and unified caches as L<level>=<size>.
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var parts []string
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		parts = append(parts, fmt.Sprintf("L%s=%s", read("level"), read("size")))
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, ",")
}
