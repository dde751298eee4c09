package graphalgo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/graph"
)

func TestArticulationPoints(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want []int32
	}{
		{name: "path", g: pathGraph(t, 5), want: []int32{1, 2, 3}},
		{name: "cycle", g: cycleGraph(t, 5), want: nil},
		{name: "complete", g: completeGraph(t, 5), want: nil},
		{name: "bowtie", g: mustGraph(t, 5, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		}), want: []int32{2}},
		{name: "star", g: mustGraph(t, 4, []graph.Edge{
			{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3},
		}), want: []int32{0}},
		{name: "disconnected cycles", g: mustGraph(t, 6, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
		}), want: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ArticulationPoints(tt.g)
			if len(got) != len(tt.want) {
				t.Fatalf("ArticulationPoints = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("ArticulationPoints = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

func TestQuickArticulationAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		g := gnp(nil2t(t), r, n, 0.35)
		got := map[int32]bool{}
		for _, v := range ArticulationPoints(g) {
			got[v] = true
		}
		_, base := Components(g)
		for v := 0; v < n; v++ {
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = i != v
			}
			sub, _, err := graph.InducedSubgraph(g, alive)
			if err != nil {
				return false
			}
			_, k := Components(sub)
			// Removing v drops one node; component count rising above the
			// base count (ignoring v's own singleton effect) marks a cut
			// vertex.
			isCut := k > base && g.Degree(int32(v)) > 0
			if got[int32(v)] != isCut {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestIsBiconnected(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Undirected
		want bool
	}{
		{name: "K2 is not 2-connected", g: completeGraph(t, 2), want: false},
		{name: "triangle", g: cycleGraph(t, 3), want: true},
		{name: "cycle10", g: cycleGraph(t, 10), want: true},
		{name: "path", g: pathGraph(t, 4), want: false},
		{name: "bowtie", g: mustGraph(t, 5, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
			{U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2},
		}), want: false},
		{name: "disconnected", g: mustGraph(t, 6, nil), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IsBiconnected(tt.g); got != tt.want {
				t.Errorf("IsBiconnected = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIsKConnectedKnownGraphs(t *testing.T) {
	tests := []struct {
		name  string
		g     *graph.Undirected
		kappa int // exact vertex connectivity
	}{
		{name: "empty-2", g: mustGraph(t, 2, nil), kappa: 0},
		{name: "K2", g: completeGraph(t, 2), kappa: 1},
		{name: "path4", g: pathGraph(t, 4), kappa: 1},
		{name: "cycle5", g: cycleGraph(t, 5), kappa: 2},
		{name: "cycle12", g: cycleGraph(t, 12), kappa: 2},
		{name: "K5", g: completeGraph(t, 5), kappa: 4},
		{name: "K7", g: completeGraph(t, 7), kappa: 6},
		{name: "petersen", g: petersen(t), kappa: 3},
		{name: "K5 minus edge", g: mustGraph(t, 5, k5MinusEdge()), kappa: 3},
		{name: "two cliques sharing 2 nodes", g: twoCliquesSharing2(t), kappa: 2},
		{name: "K3,3", g: completeBipartite(t, 3, 3), kappa: 3},
		{name: "K4,7", g: completeBipartite(t, 4, 7), kappa: 4},
		{name: "hypercube Q3", g: hypercube(t, 3), kappa: 3},
		{name: "hypercube Q4", g: hypercube(t, 4), kappa: 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for k := 0; k <= tt.kappa+2; k++ {
				want := k <= tt.kappa
				if got := IsKConnected(tt.g, k); got != want {
					t.Errorf("IsKConnected(k=%d) = %v, want %v", k, got, want)
				}
			}
			if got := VertexConnectivity(tt.g); got != tt.kappa {
				t.Errorf("VertexConnectivity = %d, want %d", got, tt.kappa)
			}
		})
	}
}

// petersen builds the Petersen graph (3-regular, κ = λ = 3).
func petersen(t *testing.T) *graph.Undirected {
	t.Helper()
	var edges []graph.Edge
	for i := int32(0); i < 5; i++ {
		edges = append(edges,
			graph.Edge{U: i, V: (i + 1) % 5},     // outer cycle
			graph.Edge{U: i, V: i + 5},           // spokes
			graph.Edge{U: i + 5, V: (i+2)%5 + 5}, // inner pentagram
		)
	}
	return mustGraph(t, 10, edges)
}

func k5MinusEdge() []graph.Edge {
	var edges []graph.Edge
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if u == 0 && v == 1 {
				continue
			}
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return edges
}

func twoCliquesSharing2(t *testing.T) *graph.Undirected {
	t.Helper()
	// K5 on {0..4} and K5 on {3..7}: separator {3,4}, κ = 2.
	var edges []graph.Edge
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	for u := int32(3); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return mustGraph(t, 8, edges)
}

func completeBipartite(t *testing.T, a, b int) *graph.Undirected {
	t.Helper()
	var edges []graph.Edge
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			edges = append(edges, graph.Edge{U: int32(u), V: int32(a + v)})
		}
	}
	return mustGraph(t, a+b, edges)
}

func hypercube(t *testing.T, dim int) *graph.Undirected {
	t.Helper()
	n := 1 << dim
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
			}
		}
	}
	return mustGraph(t, n, edges)
}

func TestIsKConnectedTrivia(t *testing.T) {
	g := completeGraph(t, 4)
	if !IsKConnected(g, 0) {
		t.Error("0-connectivity must always hold")
	}
	if !IsKConnected(g, -2) {
		t.Error("negative k must always hold")
	}
	if IsKConnected(g, 4) {
		t.Error("K4 is not 4-connected (n ≤ k)")
	}
	single := mustGraph(t, 1, nil)
	if IsKConnected(single, 1) {
		t.Error("single node is not 1-connected under κ(K_n)=n−1 convention")
	}
}

func TestQuickVertexConnectivityAgainstBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		g := gnp(nil2t(t), r, n, 0.25+r.Float64()*0.5)
		return VertexConnectivity(g) == bruteVertexConnectivity(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickKConnectivityMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := gnp(nil2t(t), r, n, r.Float64())
		prev := true
		for k := 0; k <= n; k++ {
			cur := IsKConnected(g, k)
			if cur && !prev {
				return false // once false it must stay false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickWhitneyInequalities(t *testing.T) {
	// κ ≤ λ ≤ δ for every graph (Whitney 1932).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		g := gnp(nil2t(t), r, n, 0.2+r.Float64()*0.6)
		kappa := VertexConnectivity(g)
		lambda := EdgeConnectivity(g)
		delta := g.MinDegree()
		return kappa <= lambda && lambda <= delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIsKConnected3Sparse500(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	g := gnp(b, r, 500, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsKConnected(g, 3)
	}
}

func BenchmarkIsBiconnected1000(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	g := gnp(b, r, 1000, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IsBiconnected(g)
	}
}
