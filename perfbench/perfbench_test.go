package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/experiment"
	"github.com/secure-wsn/qcomposite/internal/stats"
	"github.com/secure-wsn/qcomposite/internal/sweepserve"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// smoke runs one workload at tiny scale through the same code path as a
// full run and returns its parsed result line.
func smoke(tb testing.TB, name string, trace bool) resultLine {
	tb.Helper()
	var out, errOut bytes.Buffer
	rc := runConfig{seed: 7, seconds: 1, trace: trace, dir: tb.TempDir(), tiny: true}
	if code := execute(name, workloads[name], rc, &out, &errOut); code != 0 {
		tb.Fatalf("%s trace=%t exited %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		tb.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	return res
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := smoke(t, name, trace)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// BenchmarkWorkloads runs every workload once at tiny scale per iteration.
func BenchmarkWorkloads(b *testing.B) {
	for _, name := range workloadNames() {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				smoke(b, name, false)
			}
		})
	}
}

func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(workloadNames(), " ") {
		t.Errorf("BENCHMARK.json workloads %v, registry %v", names, workloadNames())
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, registry %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, registry %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// The checks below must reject a corrupted result.

func TestCheckConnectedRejectsFlippedVerdict(t *testing.T) {
	rep := newReport()
	checkConnected(rep, 0, wsn.ConnStats{Connected: true, Components: 1, Giant: 10})
	if len(rep.problems) != 0 {
		t.Fatalf("a connected trial was rejected: %v", rep.problems)
	}
	checkConnected(rep, 1, wsn.ConnStats{Connected: false, Components: 2, Giant: 9, Isolated: 1})
	if len(rep.problems) != 1 {
		t.Fatalf("a disconnected trial was accepted")
	}
}

func TestCheckSameResultsRejectsFlippedVerdict(t *testing.T) {
	pt := experiment.GridPoint{K: 40, Q: 2, P: 0.5}
	want := []experiment.ProportionResult{{Point: pt, Value: stats.Proportion{Successes: 3, Trials: 4}}}
	got := []experiment.ProportionResult{{Point: pt, Value: stats.Proportion{Successes: 4, Trials: 4}}}
	rep := newReport()
	checkSameResults(rep, "test", want, want)
	checkSameResults(rep, "test", got, want)
	if len(rep.problems) != 1 {
		t.Fatalf("problems %v, want exactly the flipped trial", rep.problems)
	}
}

func TestCheckAcceptRatioRejectsWrongRatio(t *testing.T) {
	sp := streamParams{pool: 512, ring: 32, q: 2}
	for _, c := range []struct {
		accepted int64
		ok       bool
	}{
		{611187, true},  // KeyShareProb(512, 32, 2) = 0.611187
		{594000, false}, // the ladder's planning constant, 35 standard errors off
		{611187 + 5000, false},
	} {
		rep := newReport()
		checkAcceptRatio(rep, layerTimes{pairsTested: 1_000_000, accepted: c.accepted}, sp)
		if ok := len(rep.problems) == 0; ok != c.ok {
			t.Errorf("accepted %d of 10⁶: passed=%t, want %t (%v)", c.accepted, ok, c.ok, rep.problems)
		}
	}
}

func TestCheckPhaseRejectsMismatchedCSV(t *testing.T) {
	sp := sweepdParams{ks: []int{10, 12}, levels: []float64{2}, window: 2, stride: 1, rounds: 1}
	spec := sp.spec(9, sp.ks)
	job := func(csv string) *jobRecord {
		return &jobRecord{spec: spec, csv: []byte(csv), status: sweepserve.JobStatus{
			ID: "job", State: sweepserve.StateDone, Progress: sweepserve.Progress{Total: 2}}}
	}
	header := "k,q,p,x,successes,trials,estimate,lo95,hi95\n"
	a := header + "10,2,0.5,2,1,4,0.250000,0.045587,0.699358\n12,2,0.5,2,4,4,1.000000,0.510109,1.000000\n"
	b := header + "10,2,0.5,2,2,4,0.500000,0.150036,0.849964\n12,2,0.5,2,4,4,1.000000,0.510109,1.000000\n"
	stats1 := sweepserve.ServerStats{Store: sweepserve.StoreStats{Misses: 2}}

	rep := newReport()
	checkPhase(rep, sp, &phase{jobs: []*jobRecord{job(a), job(a)}, stats1: stats1})
	if len(rep.problems) != 0 {
		t.Fatalf("agreeing jobs were rejected: %v", rep.problems)
	}
	rep = newReport()
	checkPhase(rep, sp, &phase{jobs: []*jobRecord{job(a), job(b)}, stats1: stats1})
	if len(rep.problems) != 1 {
		t.Fatalf("problems %v, want exactly the disagreeing point", rep.problems)
	}
	rep = newReport()
	checkSameCSV(rep, &phase{jobs: []*jobRecord{job(b)}}, &phase{jobs: []*jobRecord{job(a)}})
	if len(rep.problems) != 1 {
		t.Fatalf("a traced CSV that differs from the untraced one was accepted")
	}
	rep = newReport()
	checkPhase(rep, sp, &phase{jobs: []*jobRecord{job(a)}, stats1: sweepserve.ServerStats{Store: sweepserve.StoreStats{Misses: 3}}})
	if len(rep.problems) != 1 {
		t.Fatalf("a store that computed a point twice was accepted")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	pct, v, ok := tail(xs)
	if !ok || pct != 95 || v != 190 {
		t.Fatalf("tail of 1..200 = p%d %v (%t), want p95 190", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Fatal("ten samples cannot have ten beyond any percentile")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
