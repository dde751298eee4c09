package core

import (
	"context"
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/stats"
)

// paperModel is Figure 1's parameterisation at a K above the q=2, p=0.5
// threshold.
var paperModel = Model{N: 1000, K: 50, P: 10000, Q: 2, ChannelOn: 0.5}

func TestValidate(t *testing.T) {
	tests := []struct {
		name string
		m    Model
		ok   bool
	}{
		{name: "paper", m: paperModel, ok: true},
		{name: "negative n", m: Model{N: -1, K: 5, P: 10, Q: 1, ChannelOn: 1}, ok: false},
		{name: "q zero", m: Model{N: 10, K: 5, P: 10, Q: 0, ChannelOn: 1}, ok: false},
		{name: "K below q", m: Model{N: 10, K: 1, P: 10, Q: 2, ChannelOn: 1}, ok: false},
		{name: "P below K", m: Model{N: 10, K: 11, P: 10, Q: 1, ChannelOn: 1}, ok: false},
		{name: "p zero", m: Model{N: 10, K: 5, P: 10, Q: 1, ChannelOn: 0}, ok: false},
		{name: "p above one", m: Model{N: 10, K: 5, P: 10, Q: 1, ChannelOn: 1.5}, ok: false},
		{name: "p NaN", m: Model{N: 10, K: 5, P: 10, Q: 1, ChannelOn: math.NaN()}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.m.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestStringNotation(t *testing.T) {
	got := paperModel.String()
	want := "G_{n,2}(n=1000, K=50, P=10000, p=0.5)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestProbabilityChain(t *testing.T) {
	s, err := paperModel.KeyShareProbability()
	if err != nil {
		t.Fatal(err)
	}
	tp, err := paperModel.EdgeProbability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tp-0.5*s) > 1e-15 {
		t.Errorf("t = %v, want p·s = %v", tp, 0.5*s)
	}
	deg, err := paperModel.ExpectedDegree()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(deg-999*tp) > 1e-12 {
		t.Errorf("ExpectedDegree = %v, want %v", deg, 999*tp)
	}
	// Theoretical probabilities are proper probabilities and ordered in k
	// at fixed parameters (larger k is harder).
	prev := 2.0
	for k := 1; k <= 3; k++ {
		p, err := paperModel.TheoreticalKConnProb(k)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0 || p > 1 {
			t.Errorf("P[%d-conn] = %v", k, p)
		}
		if p >= prev {
			t.Errorf("P[%d-conn] = %v not decreasing in k", k, p)
		}
		md, err := paperModel.TheoreticalMinDegProb(k)
		if err != nil {
			t.Fatal(err)
		}
		if md != p {
			t.Errorf("min-degree limit %v != k-conn limit %v", md, p)
		}
		prev = p
	}
}

func TestSampleHasModelParameters(t *testing.T) {
	m := Model{N: 200, K: 20, P: 500, Q: 2, ChannelOn: 0.7}
	g, err := m.Sample(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Errorf("sample N = %d", g.N())
	}
	if _, err := (Model{N: -1, K: 5, P: 10, Q: 1, ChannelOn: 1}).Sample(rng.New(1)); err == nil {
		t.Error("invalid model Sample: want error")
	}
}

func TestEstimateConnectivityAgainstTheory(t *testing.T) {
	// A mid-threshold point where the asymptotic probability is far from 0
	// and 1: the empirical estimate must land near it. (n=1000 keeps the
	// asymptotics honest but each trial cheap enough for CI.)
	m := Model{N: 1000, K: 45, P: 10000, Q: 2, ChannelOn: 0.5}
	want, err := m.TheoreticalKConnProb(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.EstimateConnectivity(context.Background(), EstimateConfig{Trials: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := got.WilsonInterval(3.5) // generous band: finite-n bias + MC noise
	if want < lo-0.12 || want > hi+0.12 {
		t.Errorf("empirical %v (CI [%v,%v]) far from theoretical %v", got.Estimate(), lo, hi, want)
	}
}

func TestEstimateKConnectivityMonotoneInK(t *testing.T) {
	m := Model{N: 300, K: 30, P: 3000, Q: 2, ChannelOn: 0.8}
	ctx := context.Background()
	cfg := EstimateConfig{Trials: 60, Seed: 2}
	prev := stats.Proportion{Successes: 61, Trials: 60} // sentinel above any estimate
	for k := 1; k <= 3; k++ {
		got, err := m.EstimateKConnectivity(ctx, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trials != 60 {
			t.Fatalf("k=%d trials = %d", k, got.Trials)
		}
		if got.Successes > prev.Successes {
			t.Errorf("P[%d-conn] successes %d exceed P[%d-conn] %d", k, got.Successes, k-1, prev.Successes)
		}
		prev = got
	}
}

func TestEstimateMinDegreeDominatesKConnectivity(t *testing.T) {
	// Min degree ≥ k is necessary for k-connectivity, so its probability
	// must dominate at equal seeds (same sampled graphs).
	m := Model{N: 300, K: 25, P: 3000, Q: 2, ChannelOn: 0.5}
	ctx := context.Background()
	cfg := EstimateConfig{Trials: 80, Seed: 3}
	for k := 1; k <= 2; k++ {
		kc, err := m.EstimateKConnectivity(ctx, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		md, err := m.EstimateMinDegreeAtLeast(ctx, k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if md.Successes < kc.Successes {
			t.Errorf("k=%d: min-degree successes %d < k-conn successes %d (same seeds)",
				k, md.Successes, kc.Successes)
		}
	}
}

func TestEstimateDeterminism(t *testing.T) {
	m := Model{N: 200, K: 20, P: 2000, Q: 2, ChannelOn: 0.5}
	ctx := context.Background()
	a, err := m.EstimateConnectivity(ctx, EstimateConfig{Trials: 50, Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EstimateConnectivity(ctx, EstimateConfig{Trials: 50, Workers: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes {
		t.Errorf("worker count changed the estimate: %d vs %d", a.Successes, b.Successes)
	}
}

func TestDegreeCountDistribution(t *testing.T) {
	m := Model{N: 300, K: 20, P: 3000, Q: 2, ChannelOn: 0.5}
	const seed = 4
	counts, err := m.DegreeCountDistribution(context.Background(), 0, EstimateConfig{Trials: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 40 {
		t.Fatalf("got %d counts", len(counts))
	}
	// Counts must be consistent with direct sampling at the same seeds.
	for trial, got := range counts {
		g, err := m.Sample(rng.NewStream(seed, uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for v := int32(0); int(v) < g.N(); v++ {
			if g.Degree(v) == 0 {
				want++
			}
		}
		if got != want {
			t.Errorf("trial-%d degree-0 count = %d, want %d (replay)", trial, got, want)
		}
	}
	if _, err := m.DegreeCountDistribution(context.Background(), -1, EstimateConfig{Trials: 5, Seed: 1}); err == nil {
		t.Error("negative h: want error")
	}
}

// TestEstimatesReplaySample pins every estimator to Model.Sample: trial i of
// an estimate must see the topology Sample draws from rng.NewStream(Seed, i),
// whatever the worker count and whichever deployment mode the estimator
// runs (streaming union-find, streaming degrees, or a CSR graph).
func TestEstimatesReplaySample(t *testing.T) {
	m := Model{N: 200, K: 28, P: 2000, Q: 2, ChannelOn: 0.6}
	const (
		trials = 40
		seed   = 11
	)
	ctx := context.Background()
	estimators := []struct {
		name     string
		estimate func(EstimateConfig) (stats.Proportion, error)
		holds    func(g *graph.Undirected) bool
	}{
		{
			name:     "connectivity",
			estimate: func(cfg EstimateConfig) (stats.Proportion, error) { return m.EstimateConnectivity(ctx, cfg) },
			holds:    graphalgo.IsConnected,
		},
		{
			name: "2-connectivity",
			estimate: func(cfg EstimateConfig) (stats.Proportion, error) {
				return m.EstimateKConnectivity(ctx, 2, cfg)
			},
			holds: func(g *graph.Undirected) bool { return graphalgo.IsKConnected(g, 2) },
		},
		{
			name: "min-degree-2",
			estimate: func(cfg EstimateConfig) (stats.Proportion, error) {
				return m.EstimateMinDegreeAtLeast(ctx, 2, cfg)
			},
			holds: func(g *graph.Undirected) bool { return g.MinDegree() >= 2 },
		},
	}
	for _, e := range estimators {
		want := 0
		for trial := 0; trial < trials; trial++ {
			g, err := m.Sample(rng.NewStream(seed, uint64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			if e.holds(g) {
				want++
			}
		}
		if want == 0 || want == trials {
			t.Fatalf("%s: replay holds in %d/%d trials; pick a model where the verdict varies", e.name, want, trials)
		}
		for _, workers := range []int{1, 8} {
			got, err := e.estimate(EstimateConfig{Trials: trials, Workers: workers, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if got.Trials != trials || got.Successes != want {
				t.Errorf("%s, %d workers: %d/%d successes, want %d/%d (replay)",
					e.name, workers, got.Successes, got.Trials, want, trials)
			}
		}
	}
}

func TestThresholdAndDesignReExports(t *testing.T) {
	// ThresholdK pins the exact eq. (9) values; ThresholdKAsymptotic the
	// paper-matching computation (see theory tests for the full table).
	k, err := ThresholdK(1000, 10000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 36 {
		t.Errorf("exact K* = %d, want 36", k)
	}
	ka, err := ThresholdKAsymptotic(1000, 10000, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ka != 35 {
		t.Errorf("asymptotic K* = %d, want 35 (paper value)", ka)
	}
	dk, err := DesignK(1000, 10000, 2, 0.5, 2, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{N: 1000, K: dk, P: 10000, Q: 2, ChannelOn: 0.5}
	p, err := m.TheoreticalKConnProb(2)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Errorf("DesignK gave K=%d achieving only %v", dk, p)
	}
}

// TestSampledGraphAgreesWithKConnTest cross-checks the sampler with the
// connectivity oracle on a denser model where 2-connectivity is near-certain.
func TestSampledGraphAgreesWithKConnTest(t *testing.T) {
	m := Model{N: 150, K: 30, P: 1000, Q: 2, ChannelOn: 0.9}
	r := rng.New(5)
	conn2 := 0
	for trial := 0; trial < 10; trial++ {
		g, err := m.Sample(r)
		if err != nil {
			t.Fatal(err)
		}
		if graphalgo.IsKConnected(g, 2) {
			conn2++
			if !graphalgo.IsConnected(g) {
				t.Fatal("2-connected graph reported disconnected")
			}
		}
	}
	if conn2 == 0 {
		t.Error("dense model never 2-connected across 10 trials (suspicious)")
	}
}
