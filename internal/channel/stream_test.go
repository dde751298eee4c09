package channel

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// emittedGraph drains an emitter into a merged CSR graph.
func emittedGraph(t *testing.T, n int, emit func(yield func(u, v int32) bool) error) *graph.Undirected {
	t.Helper()
	var edges []graph.Edge
	if err := emit(func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

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

// drawn drains one draw of m on n nodes from r into a CSR graph.
func drawn(t *testing.T, m Model, r *rng.Rand, n int) *graph.Undirected {
	t.Helper()
	return emittedGraph(t, n, func(yield func(u, v int32) bool) error {
		return m.EmitEdges(r, n, yield)
	})
}

// acceptAll is a yield that keeps every pair, for draws whose pairs a test
// does not inspect.
func acceptAll(u, v int32) bool { return true }

// TestEmitEdgesDuplicateFree pins the emitter half of the streaming-degree
// contract: every built-in emitter yields each unordered pair at most once
// (degree counting is not idempotent), including on the tiny toroidal disk
// grids whose aliased neighbor cells used to produce duplicates.
func TestEmitEdgesDuplicateFree(t *testing.T) {
	models := []Model{
		OnOff{P: 0.3},
		AlwaysOn{},
		Disk{Radius: 0.2},
		Disk{Radius: 0.45, Torus: true}, // 2×2 toroidal grid
		Disk{Radius: 0.6, Torus: true},  // 1×1 toroidal grid
		HeterOnOff{P: [][]float64{{0.5}}},
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				const n = 40
				seen := make(map[[2]int32]bool)
				err := m.EmitEdges(rng.New(seed), n, func(u, v int32) bool {
					if u == v {
						t.Fatalf("seed %d: self-loop on %d", seed, u)
					}
					key := [2]int32{u, v}
					if u > v {
						key = [2]int32{v, u}
					}
					if seen[key] {
						t.Fatalf("seed %d: pair {%d,%d} emitted twice", seed, u, v)
					}
					seen[key] = true
					return true
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	hetero := HeterOnOff{P: [][]float64{{0.9, 0.5}, {0.5, 0.7}}}
	labels := make([]uint8, 50)
	for i := range labels {
		labels[i] = uint8(i % 2)
	}
	seen := make(map[[2]int32]bool)
	err := hetero.EmitClassEdges(rng.New(3), len(labels), labels, func(u, v int32) bool {
		key := [2]int32{u, v}
		if u > v {
			key = [2]int32{v, u}
		}
		if seen[key] {
			t.Fatalf("class blocks: pair {%d,%d} emitted twice", u, v)
		}
		seen[key] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmitEdgesEarlyExit checks that a false yield stops every emitter
// immediately — including across the block boundaries of EmitClassEdges —
// and that what was emitted is a prefix of the full enumeration.
func TestEmitEdgesEarlyExit(t *testing.T) {
	const n, seed = 60, 7
	labels := make([]uint8, n)
	for i := range labels {
		labels[i] = uint8(i % 3)
	}
	hetero := HeterOnOff{P: [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.4},
		{0.2, 0.4, 0.8},
	}}
	emitters := map[string]func(r *rng.Rand, yield func(u, v int32) bool) error{
		"on-off":    func(r *rng.Rand, yield func(u, v int32) bool) error { return OnOff{P: 0.3}.EmitEdges(r, n, yield) },
		"always-on": func(r *rng.Rand, yield func(u, v int32) bool) error { return AlwaysOn{}.EmitEdges(r, n, yield) },
		"disk": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return Disk{Radius: 0.3, Torus: true}.EmitEdges(r, n, yield)
		},
		"hetero-class": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return hetero.EmitClassEdges(r, n, labels, yield)
		},
	}
	for name, emit := range emitters {
		t.Run(name, func(t *testing.T) {
			var full []graph.Edge
			if err := emit(rng.New(seed), func(u, v int32) bool {
				full = append(full, graph.Edge{U: u, V: v})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(full) < 4 {
				t.Fatalf("test draw too sparse: %d edges", len(full))
			}
			for _, stop := range []int{1, 3, len(full) / 2} {
				var prefix []graph.Edge
				if err := emit(rng.New(seed), func(u, v int32) bool {
					prefix = append(prefix, graph.Edge{U: u, V: v})
					return len(prefix) < stop
				}); err != nil {
					t.Fatal(err)
				}
				if len(prefix) != stop {
					t.Fatalf("stopped after %d edges, want %d", len(prefix), stop)
				}
				for i := range prefix {
					if prefix[i] != full[i] {
						t.Fatalf("stop=%d: edge %d = %v, want %v", stop, i, prefix[i], full[i])
					}
				}
			}
		})
	}
}

// TestEmitEdgesValidation covers the emitters' validation, including the
// multi-class restriction of HeterOnOff.EmitEdges.
func TestEmitEdgesValidation(t *testing.T) {
	yield := acceptAll
	r := rng.New(1)
	if err := (OnOff{P: 1.5}).EmitEdges(r, 10, yield); err == nil {
		t.Error("invalid OnOff: want error")
	}
	if err := (AlwaysOn{}).EmitEdges(r, -1, yield); err == nil {
		t.Error("negative n: want error")
	}
	if err := (Disk{Radius: -1}).EmitEdges(r, 10, yield); err == nil {
		t.Error("invalid Disk: want error")
	}
	multi := UniformHeterOnOff(2, 0.5)
	if err := multi.EmitEdges(r, 10, yield); err == nil {
		t.Error("multi-class EmitEdges without labels: want error")
	}
	if err := multi.EmitClassEdges(r, 10, make([]uint8, 3), yield); err == nil {
		t.Error("label/count mismatch: want error")
	}
	if err := multi.EmitClassEdges(r, 4, []uint8{0, 1, 2, 0}, yield); err == nil {
		t.Error("label beyond class count: want error")
	}
}
