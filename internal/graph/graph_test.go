package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mustGraph builds a graph or fails the test.
func mustGraph(t *testing.T, n int, edges []Edge) *Undirected {
	t.Helper()
	g, err := NewFromEdges(n, edges)
	if err != nil {
		t.Fatalf("NewFromEdges: %v", err)
	}
	return g
}

func TestNewFromEdgesValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges []Edge
	}{
		{name: "negative n", n: -1, edges: nil},
		{name: "endpoint too large", n: 3, edges: []Edge{{U: 0, V: 3}}},
		{name: "negative endpoint", n: 3, edges: []Edge{{U: -1, V: 1}}},
		{name: "self loop", n: 3, edges: []Edge{{U: 2, V: 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewFromEdges(tt.n, tt.edges); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestEmptyGraph(t *testing.T) {
	g := mustGraph(t, 0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph N=%d M=%d", g.N(), g.M())
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph degrees not 0")
	}
	if g.Density() != 0 {
		t.Error("empty graph density not 0")
	}
}

func TestBasicProperties(t *testing.T) {
	// Path 0-1-2 plus isolated node 3.
	g := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 4, 2", g.N(), g.M())
	}
	wantDeg := []int{1, 2, 1, 0}
	for v, w := range wantDeg {
		if got := g.Degree(int32(v)); got != w {
			t.Errorf("Degree(%d) = %d, want %d", v, got, w)
		}
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 2 {
		t.Errorf("min/max degree = %d/%d, want 0/2", g.MinDegree(), g.MaxDegree())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) false")
	}
	if g.HasEdge(0, 2) || g.HasEdge(0, 3) || g.HasEdge(2, 2) {
		t.Error("HasEdge returned true for a non-edge")
	}
	if g.HasEdge(-1, 0) || g.HasEdge(0, 99) {
		t.Error("HasEdge out of range returned true")
	}
	hist := g.DegreeHistogram()
	want := []int{1, 2, 1}
	for h, c := range want {
		if hist[h] != c {
			t.Errorf("DegreeHistogram[%d] = %d, want %d", h, hist[h], c)
		}
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}})
	if g.M() != 1 {
		t.Errorf("M = %d, want 1 after dedup", g.M())
	}
	if got := g.Degree(0); got != 1 {
		t.Errorf("Degree(0) = %d, want 1", got)
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := mustGraph(t, 5, []Edge{{U: 4, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 1, V: 2}})
	ns := g.Neighbors(2)
	want := []int32{0, 1, 3, 4}
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", ns, want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{U: 3, V: 1}, {U: 0, V: 2}, {U: 1, V: 0}}
	g := mustGraph(t, 4, in)
	out := g.Edges()
	if len(out) != 3 {
		t.Fatalf("Edges() = %v", out)
	}
	for _, e := range out {
		if e.U >= e.V {
			t.Errorf("edge %v not normalised U < V", e)
		}
		if !g.HasEdge(e.U, e.V) {
			t.Errorf("edge %v missing from graph", e)
		}
	}
}

func TestForEachEdgeEarlyStop(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	count := 0
	g.ForEachEdge(func(u, v int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d edges, want 2", count)
	}
}

func TestIntersect(t *testing.T) {
	a := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	b := mustGraph(t, 4, []Edge{{U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	got, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 2 || !got.HasEdge(1, 2) || !got.HasEdge(2, 3) || got.HasEdge(0, 1) {
		t.Errorf("Intersect edges = %v", got.Edges())
	}
	if _, err := Intersect(a, mustGraph(t, 5, nil)); err == nil {
		t.Error("Intersect size mismatch: want error")
	}
}

func TestUnion(t *testing.T) {
	a := mustGraph(t, 3, []Edge{{U: 0, V: 1}})
	b := mustGraph(t, 3, []Edge{{U: 1, V: 2}, {U: 0, V: 1}})
	got, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != 2 || !got.HasEdge(0, 1) || !got.HasEdge(1, 2) {
		t.Errorf("Union edges = %v", got.Edges())
	}
	if _, err := Union(a, mustGraph(t, 4, nil)); err == nil {
		t.Error("Union size mismatch: want error")
	}
}

func TestIsSpanningSubgraphOf(t *testing.T) {
	small := mustGraph(t, 4, []Edge{{U: 0, V: 1}})
	big := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if !small.IsSpanningSubgraphOf(big) {
		t.Error("small ⊑ big should hold")
	}
	if big.IsSpanningSubgraphOf(small) {
		t.Error("big ⊑ small should not hold")
	}
	other := mustGraph(t, 5, []Edge{{U: 0, V: 1}})
	if small.IsSpanningSubgraphOf(other) {
		t.Error("different node counts cannot be spanning subgraphs")
	}
	if !small.IsSpanningSubgraphOf(small) {
		t.Error("reflexivity failed")
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Cycle 0-1-2-3-0; drop node 3.
	g := mustGraph(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	sub, orig, err := InducedSubgraph(g, []bool{true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub N=%d M=%d, want 3, 2", sub.N(), sub.M())
	}
	if len(orig) != 3 || orig[0] != 0 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("origID = %v", orig)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Errorf("sub edges = %v", sub.Edges())
	}
	if _, _, err := InducedSubgraph(g, []bool{true}); err == nil {
		t.Error("mask length mismatch: want error")
	}
}

func TestInducedSubgraphAllDead(t *testing.T) {
	g := mustGraph(t, 2, []Edge{{U: 0, V: 1}})
	sub, orig, err := InducedSubgraph(g, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 0 || len(orig) != 0 {
		t.Errorf("empty induced subgraph N=%d orig=%v", sub.N(), orig)
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 10 || g.MinDegree() != 4 {
		t.Errorf("K5: M=%d minDeg=%d", g.M(), g.MinDegree())
	}
	if g.Density() != 1 {
		t.Errorf("K5 density = %v", g.Density())
	}
	if _, err := Complete(-1); err == nil {
		t.Error("negative n: want error")
	}
}

// TestBuilderCompleteMatchesEdgeList pins Complete's direct CSR
// construction against the edge-list build of the same graph.
func TestBuilderCompleteMatchesEdgeList(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 20} {
		got, err := Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		var edges []Edge
		for u := int32(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				edges = append(edges, Edge{U: u, V: v})
			}
		}
		if want := mustGraph(t, n, edges); !sameGraph(want, got) {
			t.Errorf("n=%d: direct-CSR complete graph differs from edge-list build", n)
		}
		if got.M() != n*(n-1)/2 {
			t.Errorf("n=%d: M = %d, want %d", n, got.M(), n*(n-1)/2)
		}
	}
}

func TestDOT(t *testing.T) {
	g := mustGraph(t, 2, []Edge{{U: 0, V: 1}})
	dot := g.DOT("g")
	for _, want := range []string{"graph g {", "0 -- 1;", "}"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// randomEdges produces a reproducible random edge list on n nodes.
func randomEdges(r *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	return edges
}

func TestQuickDegreeSumEquals2M(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		g, err := NewFromEdges(n, randomEdges(r, n, r.Intn(150)))
		if err != nil {
			return false
		}
		sum := 0
		for v := int32(0); int(v) < g.N(); v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectIsSubgraphOfBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		a, err := NewFromEdges(n, randomEdges(r, n, r.Intn(100)))
		if err != nil {
			return false
		}
		b, err := NewFromEdges(n, randomEdges(r, n, r.Intn(100)))
		if err != nil {
			return false
		}
		inter, err := Intersect(a, b)
		if err != nil {
			return false
		}
		if !inter.IsSpanningSubgraphOf(a) || !inter.IsSpanningSubgraphOf(b) {
			return false
		}
		// Every common edge must be present.
		missing := false
		a.ForEachEdge(func(u, v int32) bool {
			if b.HasEdge(u, v) && !inter.HasEdge(u, v) {
				missing = true
				return false
			}
			return true
		})
		return !missing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		a, err := NewFromEdges(n, randomEdges(r, n, r.Intn(100)))
		if err != nil {
			return false
		}
		b, err := NewFromEdges(n, randomEdges(r, n, r.Intn(100)))
		if err != nil {
			return false
		}
		u, err := Union(a, b)
		if err != nil {
			return false
		}
		return a.IsSpanningSubgraphOf(u) && b.IsSpanningSubgraphOf(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickEdgesMatchHasEdge(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g, err := NewFromEdges(n, randomEdges(r, n, r.Intn(100)))
		if err != nil {
			return false
		}
		listed := make(map[[2]int32]bool)
		for _, e := range g.Edges() {
			listed[[2]int32{e.U, e.V}] = true
		}
		if len(listed) != g.M() {
			return false
		}
		for u := int32(0); int(u) < n; u++ {
			for v := u + 1; int(v) < n; v++ {
				if g.HasEdge(u, v) != listed[[2]int32{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNewFromEdges(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	edges := randomEdges(r, 1000, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFromEdges(1000, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHasEdge(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	g, err := NewFromEdges(1000, randomEdges(r, 1000, 8000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.HasEdge(int32(i%1000), int32((i*7)%1000))
	}
}
