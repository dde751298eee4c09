package randgraph

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

func TestErdosRenyiValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := ErdosRenyi(r, -1, 0.5); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := ErdosRenyi(r, 10, -0.1); err == nil {
		t.Error("negative p: want error")
	}
	if _, err := ErdosRenyi(r, 10, 1.1); err == nil {
		t.Error("p > 1: want error")
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	r := rng.New(2)
	g, err := ErdosRenyi(r, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Errorf("G(20, 0) has %d edges", g.M())
	}
	g, err = ErdosRenyi(r, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 190 {
		t.Errorf("G(20, 1) has %d edges, want 190", g.M())
	}
	g, err = ErdosRenyi(r, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 0 {
		t.Errorf("G(0, .5) has %d nodes", g.N())
	}
	g, err = ErdosRenyi(r, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Errorf("G(1, .5) has %d edges", g.M())
	}
}

func TestErdosRenyiEdgeFrequency(t *testing.T) {
	// Aggregate edge count over trials must match p·C(n,2), and individual
	// pairs must be uniform (spot check a few pairs).
	const (
		n      = 30
		p      = 0.13
		trials = 4000
	)
	r := rng.New(3)
	pairCount := map[[2]int32]int{}
	total := 0
	for i := 0; i < trials; i++ {
		g, err := ErdosRenyi(r, n, p)
		if err != nil {
			t.Fatal(err)
		}
		total += g.M()
		g.ForEachEdge(func(u, v int32) bool {
			pairCount[[2]int32{u, v}]++
			return true
		})
	}
	pairs := float64(n * (n - 1) / 2)
	wantMean := p * pairs
	gotMean := float64(total) / trials
	sd := math.Sqrt(pairs * p * (1 - p) / trials)
	if math.Abs(gotMean-wantMean) > 6*sd {
		t.Errorf("mean edges = %v, want %v ± %v", gotMean, wantMean, 6*sd)
	}
	for _, pair := range [][2]int32{{0, 1}, {0, 29}, {13, 14}, {28, 29}} {
		freq := float64(pairCount[pair]) / trials
		tol := 6 * math.Sqrt(p*(1-p)/trials)
		if math.Abs(freq-p) > tol {
			t.Errorf("pair %v frequency = %v, want %v ± %v", pair, freq, p, tol)
		}
	}
}

func TestErdosRenyiDeterminism(t *testing.T) {
	a, err := ErdosRenyi(rng.New(77), 50, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(rng.New(77), 50, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsSpanningSubgraphOf(b) || !b.IsSpanningSubgraphOf(a) {
		t.Error("same seed produced different graphs")
	}
}

func TestSampleCoupledValidation(t *testing.T) {
	tests := []struct {
		name             string
		n, ring, pool, q int
		x                float64
	}{
		{name: "negative n", n: -1, ring: 5, pool: 10, q: 1, x: 0.1},
		{name: "q zero", n: 5, ring: 5, pool: 10, q: 0, x: 0.1},
		{name: "ring below q", n: 5, ring: 1, pool: 10, q: 2, x: 0.1},
		{name: "pool below ring", n: 5, ring: 11, pool: 10, q: 1, x: 0.1},
		{name: "x negative", n: 5, ring: 5, pool: 10, q: 1, x: -0.1},
		{name: "x above one", n: 5, ring: 5, pool: 10, q: 1, x: 1.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := SampleCoupled(rng.New(1), tt.n, tt.ring, tt.pool, tt.q, tt.x); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestSampleCoupledContainment(t *testing.T) {
	// The Lemma 5 coupling must always produce Binomial ⊑ Uniform.
	const (
		n    = 60
		ring = 15
		pool = 150
		q    = 2
	)
	r := rng.New(11)
	// Mean binomial draw = x·P = 7.5 keys, ring = 15: the event
	// {all 60 nodes draw ≤ 15} holds with probability ≈ 0.94.
	x := float64(ring) / float64(pool) * 0.5
	coupledCount := 0
	for trial := 0; trial < 30; trial++ {
		pair, err := SampleCoupled(r, n, ring, pool, q, x)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.Binomial.IsSpanningSubgraphOf(pair.Uniform) {
			t.Fatal("binomial graph not contained in uniform graph")
		}
		if pair.Coupled {
			coupledCount++
		}
	}
	if coupledCount == 0 {
		t.Error("coupling event never held; x may be too aggressive")
	}
	if _, err := SampleCoupled(r, n, ring, pool, q, 1.5); err == nil {
		t.Error("x > 1: want error")
	}
}

func TestSampleCoupledWithTheoryX(t *testing.T) {
	// With the paper's x_n from eq. (66) the coupling event should
	// essentially always hold at these scales.
	const (
		n    = 200
		ring = 64
		pool = 5000
		q    = 2
	)
	x := theory.CouplingX(n, pool, ring)
	if x <= 0 {
		t.Skip("coupling x not in regime")
	}
	r := rng.New(12)
	for trial := 0; trial < 10; trial++ {
		pair, err := SampleCoupled(r, n, ring, pool, q, x)
		if err != nil {
			t.Fatal(err)
		}
		if !pair.Coupled {
			t.Error("Lemma 5 coupling event failed at paper-regime x_n")
		}
		if !pair.Binomial.IsSpanningSubgraphOf(pair.Uniform) {
			t.Fatal("containment violated")
		}
	}
}

func BenchmarkErdosRenyi1000(b *testing.B) {
	r := rng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ErdosRenyi(r, 1000, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
