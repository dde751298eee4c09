package graphalgo

import (
	"math"
	"math/rand"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestTriangleCount(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want int
	}{
		{name: "triangle", g: cycleGraph(t, 3), want: 1},
		{name: "cycle4", g: cycleGraph(t, 4), want: 0},
		{name: "K4", g: completeGraph(t, 4), want: 4},
		{name: "K5", g: completeGraph(t, 5), want: 10},
		{name: "path", g: pathGraph(t, 6), want: 0},
		{name: "bowtie", g: mustGraph(t, 5, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		}), want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TriangleCount(tt.g); got != tt.want {
				t.Errorf("TriangleCount = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if got := GlobalClusteringCoefficient(completeGraph(t, 6)); math.Abs(got-1) > 1e-12 {
		t.Errorf("K6 clustering = %v, want 1", got)
	}
	if got := GlobalClusteringCoefficient(pathGraph(t, 5)); got != 0 {
		t.Errorf("path clustering = %v, want 0", got)
	}
	if got := GlobalClusteringCoefficient(mustGraph(t, 3, nil)); got != 0 {
		t.Errorf("edgeless clustering = %v, want 0", got)
	}
	// Bowtie: 2 triangles, wedges = C(2,2)*4 + C(4,2) = 4*1 + 6 = 10.
	bowtie := mustGraph(t, 5, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
	})
	if got, want := GlobalClusteringCoefficient(bowtie), 0.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("bowtie clustering = %v, want %v", got, want)
	}
}

func TestHamiltonianCycleFindsObvious(t *testing.T) {
	r := rng.New(99)
	tests := []struct {
		name string
		g    *graph.Undirected
	}{
		{name: "cycle12", g: cycleGraph(t, 12)},
		{name: "K6", g: completeGraph(t, 6)},
		{name: "hypercube Q3", g: hypercube(t, 3)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cyc, ok := HamiltonianCycle(tt.g, r, 50)
			if !ok {
				t.Fatal("no Hamiltonian cycle found")
			}
			validateHamCycle(t, tt.g, cyc)
		})
	}
}

func validateHamCycle(t *testing.T, g *graph.Undirected, cyc []int32) {
	t.Helper()
	if len(cyc) != g.N() {
		t.Fatalf("cycle length = %d, want %d", len(cyc), g.N())
	}
	seen := make([]bool, g.N())
	for i, v := range cyc {
		if seen[v] {
			t.Fatalf("node %d repeated", v)
		}
		seen[v] = true
		next := cyc[(i+1)%len(cyc)]
		if !g.HasEdge(v, next) {
			t.Fatalf("cycle step (%d,%d) is not an edge", v, next)
		}
	}
}

func TestHamiltonianCycleRejectsImpossible(t *testing.T) {
	r := rng.New(100)
	if _, ok := HamiltonianCycle(pathGraph(t, 5), r, 20); ok {
		t.Error("found Hamiltonian cycle in a path")
	}
	star := mustGraph(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if _, ok := HamiltonianCycle(star, r, 20); ok {
		t.Error("found Hamiltonian cycle in a star")
	}
	if _, ok := HamiltonianCycle(mustGraph(t, 0, nil), r, 5); ok {
		t.Error("found cycle in empty graph")
	}
	if cyc, ok := HamiltonianCycle(mustGraph(t, 1, nil), r, 5); !ok || len(cyc) != 1 {
		t.Error("single node should be trivially Hamiltonian")
	}
	if _, ok := HamiltonianCycle(completeGraph(t, 2), r, 5); ok {
		t.Error("K2 has no Hamiltonian cycle")
	}
}

func TestHamiltonianCycleDenseRandom(t *testing.T) {
	// Dense G(n,p) far above the Hamiltonicity threshold: the heuristic
	// should succeed.
	r := rand.New(rand.NewSource(5))
	g := gnp(t, r, 40, 0.5)
	cyc, ok := HamiltonianCycle(g, rng.New(101), 200)
	if !ok {
		t.Fatal("heuristic failed on a dense random graph")
	}
	validateHamCycle(t, g, cyc)
}

func BenchmarkTriangleCount(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	g := gnp(b, r, 500, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TriangleCount(g)
	}
}
