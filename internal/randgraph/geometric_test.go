package randgraph

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// geometric draws one random geometric graph through a fresh GeoScratch and
// returns it with the sampled positions.
func geometric(r *rng.Rand, n int, radius float64, opts GeometricOptions) (*graph.Undirected, []geometricPoint, error) {
	var sc GeoScratch
	var edges []graph.Edge
	err := sc.EmitGeometric(r, n, radius, opts, func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return g, sc.pts, nil
}

func TestGeometricValidation(t *testing.T) {
	r := rng.New(1)
	if _, _, err := geometric(r, -1, 0.1, GeometricOptions{}); err == nil {
		t.Error("negative n: want error")
	}
	if _, _, err := geometric(r, 10, -0.1, GeometricOptions{}); err == nil {
		t.Error("negative radius: want error")
	}
}

func TestGeometricEdgesMatchDistances(t *testing.T) {
	// Cross-check the grid accelerated sampler against a direct O(n²)
	// distance scan, in both torus and square metrics.
	for _, torus := range []bool{false, true} {
		r := rng.New(21)
		for _, radius := range []float64{0, 0.05, 0.2, 0.45, 0.8} {
			g, pts, err := geometric(r, 80, radius, GeometricOptions{Torus: torus})
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < 80; u++ {
				for v := u + 1; v < 80; v++ {
					dx := math.Abs(pts[u].X - pts[v].X)
					dy := math.Abs(pts[u].Y - pts[v].Y)
					if torus {
						if dx > 0.5 {
							dx = 1 - dx
						}
						if dy > 0.5 {
							dy = 1 - dy
						}
					}
					want := dx*dx+dy*dy <= radius*radius
					if got := g.HasEdge(int32(u), int32(v)); got != want {
						t.Fatalf("torus=%v radius=%v edge(%d,%d) = %v, want %v",
							torus, radius, u, v, got, want)
					}
				}
			}
		}
	}
}

func TestGeometricTorusEdgeProbability(t *testing.T) {
	// On the torus every pair is an edge with probability exactly π·r²
	// (r ≤ 1/2): the property used to match the disk model against on/off
	// channels in experiment E8.
	const (
		n      = 40
		radius = 0.1
		trials = 500
	)
	r := rng.New(22)
	edges := 0
	for i := 0; i < trials; i++ {
		g, _, err := geometric(r, n, radius, GeometricOptions{Torus: true})
		if err != nil {
			t.Fatal(err)
		}
		edges += g.M()
	}
	want := math.Pi * radius * radius
	pairs := float64(n * (n - 1) / 2)
	got := float64(edges) / (pairs * trials)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("torus edge probability = %v, want π·r² = %v", got, want)
	}
}

func TestGeometricSquareHasFewerEdgesThanTorus(t *testing.T) {
	// Boundary effects can only remove edges relative to the torus metric.
	const trials = 200
	rSq, rTo := rng.New(23), rng.New(23)
	sq, to := 0, 0
	for i := 0; i < trials; i++ {
		g1, _, err := geometric(rSq, 60, 0.2, GeometricOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g2, _, err := geometric(rTo, 60, 0.2, GeometricOptions{Torus: true})
		if err != nil {
			t.Fatal(err)
		}
		sq += g1.M()
		to += g2.M()
	}
	if sq >= to {
		t.Errorf("square edges %d ≥ torus edges %d over same point sets", sq, to)
	}
}

func TestGeometricDeterminismAndPoints(t *testing.T) {
	g1, pts1, err := geometric(rng.New(24), 50, 0.15, GeometricOptions{Torus: true})
	if err != nil {
		t.Fatal(err)
	}
	g2, pts2, err := geometric(rng.New(24), 50, 0.15, GeometricOptions{Torus: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.IsSpanningSubgraphOf(g2) || !g2.IsSpanningSubgraphOf(g1) {
		t.Error("same seed produced different geometric graphs")
	}
	for i := range pts1 {
		if pts1[i] != pts2[i] {
			t.Fatalf("point %d differs between equal-seed samples", i)
		}
		if pts1[i].X < 0 || pts1[i].X >= 1 || pts1[i].Y < 0 || pts1[i].Y >= 1 {
			t.Fatalf("point %d = %+v outside unit square", i, pts1[i])
		}
	}
}

func TestGeometricZeroRadius(t *testing.T) {
	g, _, err := geometric(rng.New(25), 100, 0, GeometricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 0 {
		t.Errorf("radius 0 produced %d edges", g.M())
	}
}

func BenchmarkGeometric1000(b *testing.B) {
	r := rng.New(26)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := geometric(r, 1000, 0.05, GeometricOptions{Torus: true}); err != nil {
			b.Fatal(err)
		}
	}
}
