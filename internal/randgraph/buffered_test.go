package randgraph

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// sameGraph reports byte-identical CSR contents.
func sameGraph(a, b *graph.Undirected) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}

// TestAppendErdosRenyiMatchesErdosRenyi pins the append-style sampler
// against the one-shot graph constructor, reusing one destination buffer.
func TestAppendErdosRenyiMatchesErdosRenyi(t *testing.T) {
	var buf []graph.Edge
	for _, p := range []float64{0, 0.07, 0.5, 1} {
		for trial := 0; trial < 4; trial++ {
			seed := uint64(3000 + trial)
			want, err := ErdosRenyi(rng.New(seed), 70, p)
			if err != nil {
				t.Fatal(err)
			}
			buf, err = AppendErdosRenyi(rng.New(seed), 70, p, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := graph.NewFromEdges(70, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(want, got) {
				t.Fatalf("p=%g trial %d: AppendErdosRenyi differs from ErdosRenyi", p, trial)
			}
		}
	}
	if _, err := AppendErdosRenyi(rng.New(1), -1, 0.5, nil); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := AppendErdosRenyi(rng.New(1), 10, 1.5, nil); err == nil {
		t.Error("p out of range: want error")
	}
	// The one-shot form must reject bad probabilities before sizing its
	// edge buffer from them (int(+Inf·…) would panic make).
	for _, p := range []float64{math.Inf(1), math.NaN(), -0.5, 2} {
		if _, err := ErdosRenyi(rng.New(1), 10, p); err == nil {
			t.Errorf("p=%v: want error", p)
		}
	}
}

// TestAppendGeometricMatchesGeometric pins the scratch-reusing geometric
// sampler against the one-shot form, positions included.
func TestAppendGeometricMatchesGeometric(t *testing.T) {
	var sc GeoScratch
	var buf []graph.Edge
	for _, torus := range []bool{false, true} {
		for trial := 0; trial < 4; trial++ {
			seed := uint64(7000 + trial)
			opts := GeometricOptions{Torus: torus}
			want, wantPts, err := Geometric(rng.New(seed), 60, 0.2, opts)
			if err != nil {
				t.Fatal(err)
			}
			buf, err = sc.AppendGeometric(rng.New(seed), 60, 0.2, opts, buf[:0])
			if err != nil {
				t.Fatal(err)
			}
			got, err := graph.NewFromEdges(60, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(want, got) {
				t.Fatalf("torus=%v trial %d: AppendGeometric differs from Geometric", torus, trial)
			}
			gotPts := sc.Points()
			if len(gotPts) != len(wantPts) {
				t.Fatalf("position count %d, want %d", len(gotPts), len(wantPts))
			}
			for i := range wantPts {
				if gotPts[i] != wantPts[i] {
					t.Fatalf("position %d differs: %v vs %v", i, gotPts[i], wantPts[i])
				}
			}
		}
	}
}
