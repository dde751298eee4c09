package graphalgo

import (
	"math"
	"math/rand"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// feedGraph pushes every edge of g into the sink after resetting it to g's
// node count, returning how many pushes merged components.
func feedGraph(s *StreamUnionFind, g *graph.Undirected) int {
	s.Reset(g.N())
	merges := 0
	g.ForEachEdge(func(u, v int32) bool {
		if s.Add(u, v) {
			merges++
		}
		return true
	})
	return merges
}

// requireMatchesGraph asserts the sink's statistics equal the batch
// measurements of the graph it was fed: component count, largest-component
// size, degree-0 count, and the Report connectivity convention.
func requireMatchesGraph(t *testing.T, s *StreamUnionFind, g *graph.Undirected) {
	t.Helper()
	_, comps := Components(g)
	if got := s.Components(); got != comps {
		t.Errorf("Components() = %d, want %d", got, comps)
	}
	if want := LargestComponentSize(g); s.GiantSize() != want {
		t.Errorf("GiantSize() = %d, want %d", s.GiantSize(), want)
	}
	isolated := 0
	if hist := g.DegreeHistogram(); len(hist) > 0 {
		isolated = hist[0]
	}
	if got := s.IsolatedCount(); got != isolated {
		t.Errorf("IsolatedCount() = %d, want %d", got, isolated)
	}
	if want := comps <= 1; s.Connected() != want || s.Done() != want {
		t.Errorf("Connected()/Done() = %v/%v, want %v", s.Connected(), s.Done(), want)
	}
}

// TestStreamUnionFindMatchesBatchMeasures feeds structured and random graphs
// through the sink and compares every statistic against the batch algorithms.
func TestStreamUnionFindMatchesBatchMeasures(t *testing.T) {
	var s StreamUnionFind
	graphs := map[string]*graph.Undirected{
		"empty":      mustGraph(t, 0, nil),
		"singleton":  mustGraph(t, 1, nil),
		"two-lonely": mustGraph(t, 2, nil),
		"path":       pathGraph(t, 12),
		"cycle":      cycleGraph(t, 9),
		"complete":   completeGraph(t, 8),
		"two-comps": mustGraph(t, 7, []graph.Edge{
			{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, // node 5, 6 isolated
		}),
	}
	r := rand.New(rand.NewSource(4))
	for i, p := range []float64{0.01, 0.05, 0.2, 0.8} {
		graphs["gnp-"+string(rune('a'+i))] = gnp(t, r, 60, p)
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			feedGraph(&s, g) // reused sink across subtests: Reset must clean up
			requireMatchesGraph(t, &s, g)
		})
	}
}

// TestStreamUnionFindIncrementalInvariants drives one sink edge by edge and
// checks the statistics stay consistent at every step, that duplicates and
// self-loops are no-ops, and that Done flips exactly when one component
// remains.
func TestStreamUnionFindIncrementalInvariants(t *testing.T) {
	var s StreamUnionFind
	s.Reset(5)
	if s.Components() != 5 || s.IsolatedCount() != 5 || s.GiantSize() != 1 || s.Done() {
		t.Fatalf("fresh state: comps=%d isolated=%d giant=%d done=%v",
			s.Components(), s.IsolatedCount(), s.GiantSize(), s.Done())
	}
	if s.Add(2, 2) {
		t.Error("self-loop reported a merge")
	}
	if !s.Add(0, 1) {
		t.Error("first edge did not merge")
	}
	if s.Add(1, 0) {
		t.Error("duplicate edge reported a merge")
	}
	if s.Components() != 4 || s.IsolatedCount() != 3 || s.GiantSize() != 2 {
		t.Fatalf("after {0,1}: comps=%d isolated=%d giant=%d",
			s.Components(), s.IsolatedCount(), s.GiantSize())
	}
	s.Add(2, 3)
	s.Add(0, 2) // merges {0,1} with {2,3}
	if s.Components() != 2 || s.IsolatedCount() != 1 || s.GiantSize() != 4 || s.Done() {
		t.Fatalf("after 3 merges: comps=%d isolated=%d giant=%d done=%v",
			s.Components(), s.IsolatedCount(), s.GiantSize(), s.Done())
	}
	s.Add(4, 1)
	if !s.Done() || !s.Connected() || s.GiantSize() != 5 || s.IsolatedCount() != 0 {
		t.Fatalf("after spanning: comps=%d isolated=%d giant=%d done=%v",
			s.Components(), s.IsolatedCount(), s.GiantSize(), s.Done())
	}
}

// TestStreamUnionFindResetReuse pins the amortization contract: a sink that
// just answered a large connected instance must come back clean for a small
// disconnected one.
func TestStreamUnionFindResetReuse(t *testing.T) {
	var s StreamUnionFind
	feedGraph(&s, completeGraph(t, 40))
	if !s.Done() {
		t.Fatal("K40 should be connected")
	}
	g := mustGraph(t, 6, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	feedGraph(&s, g)
	requireMatchesGraph(t, &s, g)
}

// TestStreamUnionFindEdgeOrderIndependence shuffles the edge feed order; the
// statistics are functions of the edge set, so every order must agree.
func TestStreamUnionFindEdgeOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := gnp(t, r, 50, 0.04)
	edges := g.Edges()
	var want StreamUnionFind
	feedGraph(&want, g)
	var s StreamUnionFind
	for pass := 0; pass < 5; pass++ {
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		s.Reset(g.N())
		for _, e := range edges {
			s.Add(e.U, e.V)
		}
		if s.Components() != want.Components() || s.GiantSize() != want.GiantSize() ||
			s.IsolatedCount() != want.IsolatedCount() {
			t.Fatalf("pass %d: stats depend on edge order", pass)
		}
	}
}

// TestAddBatchMatchesAdd pins the batch push to sequential Add with a Done
// check after every edge: over random streams with self-loops, repeated
// edges and random accepted subsets, each AddBatch must stop at the same
// position, and leave the same statistics, as the reference — including
// batches pushed after Done (which push nothing) and empty ones.
func TestAddBatchMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(40)
		var got, want StreamUnionFind
		got.Reset(n)
		want.Reset(n)
		for b := 0; b < 30; b++ {
			pairs := make([][2]int32, r.Intn(20))
			for i := range pairs {
				pairs[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
			}
			var idx []int32
			for i := range pairs {
				if r.Intn(3) > 0 {
					idx = append(idx, int32(i))
				}
			}
			wantPos := 0
			if !want.Done() {
				wantPos = len(idx)
				for j, i := range idx {
					want.Add(pairs[i][0], pairs[i][1])
					if want.Done() {
						wantPos = j + 1
						break
					}
				}
			}
			if pos := got.AddBatch(pairs, idx); pos != wantPos {
				t.Fatalf("trial %d batch %d: AddBatch stopped at %d, want %d", trial, b, pos, wantPos)
			}
			if got.Components() != want.Components() || got.GiantSize() != want.GiantSize() ||
				got.IsolatedCount() != want.IsolatedCount() || got.Done() != want.Done() {
				t.Fatalf("trial %d batch %d: stats (%d, %d, %d) want (%d, %d, %d)", trial, b,
					got.Components(), got.GiantSize(), got.IsolatedCount(),
					want.Components(), want.GiantSize(), want.IsolatedCount())
			}
		}
	}
}

// BenchmarkStreamUnionFindAddBatch measures the union-find sink per
// accepted edge on a recorded n = 10⁶ stream (see recordLadderEdges),
// replayed in the trial's batches of ~150 accepted edges (a 256-pair batch
// at a 0.594 accept ratio). AddBatch runs against sequential Add with a
// Done check, the path it replaces.
func BenchmarkStreamUnionFindAddBatch(b *testing.B) {
	const (
		n     = 1_000_000
		batch = 152
	)
	edges := recordLadderEdges(b, n, 1<<22)
	idx := make([]int32, batch)
	for i := range idx {
		idx[i] = int32(i)
	}
	// run pushes b.N edges batch by batch, restarting the recording (and
	// the sink, untimed) whenever it runs out.
	run := func(b *testing.B, push func(s *StreamUnionFind, batch [][2]int32)) {
		var s StreamUnionFind
		s.Reset(n)
		b.ReportAllocs()
		b.ResetTimer()
		for done, pos := 0, 0; done < b.N; {
			if pos == len(edges) {
				b.StopTimer()
				s.Reset(n)
				pos = 0
				b.StartTimer()
			}
			m := min(batch, b.N-done, len(edges)-pos)
			push(&s, edges[pos:pos+m])
			pos += m
			done += m
		}
	}
	b.Run("AddBatch", func(b *testing.B) {
		run(b, func(s *StreamUnionFind, batch [][2]int32) {
			s.AddBatch(batch, idx[:len(batch)])
		})
	})
	b.Run("Add", func(b *testing.B) {
		run(b, func(s *StreamUnionFind, batch [][2]int32) {
			for _, e := range batch {
				s.Add(e[0], e[1])
				if s.Done() {
					break
				}
			}
		})
	})
}

// recordLadderEdges returns the first m secure edges, in emission order, of
// a streaming-ladder trial on n sensors (P = 512, K = 32, q = 2,
// p = 8·ln n/(0.594·n)). At n = 10⁶, m = 2²² is about a third of the
// trial's union-find work.
func recordLadderEdges(tb testing.TB, n, m int) [][2]int32 {
	tb.Helper()
	scheme, err := keys.NewQComposite(512, 32, 2)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(21)
	var arena keys.RingArena
	asg, err := scheme.AssignInto(r, n, &arena)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := keys.NewIntersector(scheme.PoolSize())
	if err != nil {
		tb.Fatal(err)
	}
	if err := ix.Reset(asg.Rings); err != nil {
		tb.Fatal(err)
	}
	edges := make([][2]int32, 0, m)
	p := 8 * math.Log(float64(n)) / (0.594 * float64(n))
	err = randgraph.AppendErdosRenyiStream(r, n, p, func(u, v int32) bool {
		if ix.HasAtLeast(u, v, 2) {
			edges = append(edges, [2]int32{u, v})
		}
		return len(edges) < m
	})
	if err != nil {
		tb.Fatal(err)
	}
	return edges
}
