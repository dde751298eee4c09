package graph

import (
	"math/rand"
	"testing"
)

// sameGraph reports whether two graphs have identical node counts and
// byte-identical CSR contents (offsets and adjacency).
func sameGraph(a, b *Undirected) bool {
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

// messyEdges draws count edges over n nodes with duplicates in both
// orientations — the messiest input FromEdges must normalise.
func messyEdges(r *rand.Rand, n, count int) []Edge {
	edges := make([]Edge, 0, count)
	for len(edges) < count {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		if r.Intn(2) == 0 {
			u, v = v, u // random orientation
		}
		edges = append(edges, Edge{U: u, V: v})
		if r.Intn(4) == 0 {
			edges = append(edges, Edge{U: v, V: u}) // duplicate, flipped
		}
	}
	return edges
}

func TestBuilderMatchesNewFromEdges(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	b := NewBuilder()
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(60)
		edges := messyEdges(r, n, r.Intn(4*n))
		want, err := NewFromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(want, got) {
			t.Fatalf("trial %d (n=%d, %d edges): builder and NewFromEdges disagree", trial, n, len(edges))
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	if _, err := b.FromEdges(-1, nil); err == nil {
		t.Error("negative n: want error")
	}
	if _, err := b.FromEdges(3, []Edge{{U: 0, V: 3}}); err == nil {
		t.Error("out-of-range endpoint: want error")
	}
	if _, err := b.FromEdges(3, []Edge{{U: 1, V: 1}}); err == nil {
		t.Error("self-loop: want error")
	}
	// A failed build must not poison the next one.
	g, err := b.FromEdges(2, []Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d after failed builds, want 1", g.M())
	}
}

func TestBuilderDoubleBufferLifetime(t *testing.T) {
	// A built graph must survive one subsequent build (the deployer builds
	// the next trial's graph while the previous network is still live) and
	// only be reclaimed by the second-next.
	b := NewBuilder()
	g1, err := b.FromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFromEdges(4, []Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.FromEdges(5, []Edge{{U: 0, V: 4}, {U: 1, V: 2}, {U: 1, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g1, want) {
		t.Error("graph from build i corrupted during build i+1")
	}
}

// TestBuilderScratchReuse checks that a warmed-up builder reuses its
// degree/cursor scratch and both CSR arenas: rebuilding graphs no larger
// than earlier ones allocates nothing.
func TestBuilderScratchReuse(t *testing.T) {
	b := NewBuilder()
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}}
	build := func() {
		g, err := b.FromEdges(5, edges)
		if err != nil {
			t.Fatal(err)
		}
		if g.M() != 4 {
			t.Fatalf("M = %d, want 4", g.M())
		}
	}
	build()
	build() // both arenas grown
	if avg := testing.AllocsPerRun(20, build); avg != 0 {
		t.Errorf("FromEdges on a warmed-up builder: %.1f allocs/run, want 0", avg)
	}
}

func FuzzBuilderMatchesNewFromEdges(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(30))
	f.Add(int64(7), uint8(2), uint16(1))
	f.Add(int64(99), uint8(40), uint16(400))
	b := NewBuilder()
	f.Fuzz(func(t *testing.T, seed int64, n uint8, count uint16) {
		nodes := 2 + int(n)%64
		r := rand.New(rand.NewSource(seed))
		edges := messyEdges(r, nodes, int(count)%256)
		want, err := NewFromEdges(nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.FromEdges(nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGraph(want, got) {
			t.Fatalf("builder and NewFromEdges disagree (n=%d, %d edges)", nodes, len(edges))
		}
	})
}
