package randgraph

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// collectStream drains a streaming enumerator into an edge slice.
func collectStream(t *testing.T, emit func(yield func(u, v int32) bool) error) []graph.Edge {
	t.Helper()
	var edges []graph.Edge
	if err := emit(func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return edges
}

// requireSameEdges asserts two edge sequences are identical, order included.
func requireSameEdges(t *testing.T, want, got []graph.Edge) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// subsetStream and bipartiteStream run the block emitters on a private
// kernel over r, as a single-block draw.
func subsetStream(r *rng.Rand, nodes []int32, p float64, yield func(u, v int32) bool) error {
	var src rng.GeometricSource
	src.Reset(r)
	return EmitErdosRenyiSubset(&src, nodes, p, yield)
}

func bipartiteStream(r *rng.Rand, a, b []int32, p float64, yield func(u, v int32) bool) error {
	var src rng.GeometricSource
	src.Reset(r)
	return EmitErdosRenyiBipartite(&src, a, b, p, yield)
}

// TestStreamEarlyExitIsPrefix pins the early-exit semantics: stopping after m
// edges yields exactly the first m edges of the full enumeration, for every
// stream variant.
func TestStreamEarlyExitIsPrefix(t *testing.T) {
	const seed = 9
	nodes := []int32{1, 4, 6, 9, 13, 17, 22, 30}
	sideA := []int32{0, 2, 4, 6}
	sideB := []int32{1, 3, 5, 7, 9}
	variants := map[string]func(r *rng.Rand, yield func(u, v int32) bool) error{
		"er": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return AppendErdosRenyiStream(r, 30, 0.3, yield)
		},
		"er-dense": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return AppendErdosRenyiStream(r, 12, 1, yield)
		},
		"subset": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return subsetStream(r, nodes, 0.5, yield)
		},
		"bipartite": func(r *rng.Rand, yield func(u, v int32) bool) error {
			return bipartiteStream(r, sideA, sideB, 0.5, yield)
		},
	}
	for name, emit := range variants {
		t.Run(name, func(t *testing.T) {
			full := collectStream(t, func(yield func(u, v int32) bool) error {
				return emit(rng.New(seed), yield)
			})
			if len(full) < 3 {
				t.Fatalf("test draw too sparse: %d edges", len(full))
			}
			for stop := 0; stop <= len(full); stop++ {
				var prefix []graph.Edge
				err := emit(rng.New(seed), func(u, v int32) bool {
					prefix = append(prefix, graph.Edge{U: u, V: v})
					return len(prefix) < stop
				})
				if err != nil {
					t.Fatal(err)
				}
				wantLen := stop
				if stop == 0 {
					wantLen = 1 // yield runs once before its verdict is read
				}
				if wantLen > len(full) {
					wantLen = len(full)
				}
				requireSameEdges(t, full[:wantLen], prefix)
			}
		})
	}
}

// TestBipartiteStreamEarlyExitPrefix strengthens the bipartite case of the
// prefix law across side shapes the class-block sampler actually produces —
// single-row, single-column, tall and wide grids — and across densities:
// stopping after m edges must yield exactly the first m edges of the full
// enumeration at every possible stop point.
func TestBipartiteStreamEarlyExitPrefix(t *testing.T) {
	makeSide := func(start, step int32, count int) []int32 {
		side := make([]int32, count)
		for i := range side {
			side[i] = start + step*int32(i)
		}
		return side
	}
	shapes := []struct {
		name string
		a, b []int32
	}{
		{"1x1", makeSide(0, 1, 1), makeSide(100, 1, 1)},
		{"row-1x24", makeSide(0, 1, 1), makeSide(100, 1, 24)},
		{"col-24x1", makeSide(0, 1, 24), makeSide(100, 1, 1)},
		{"wide-3x17", makeSide(0, 2, 3), makeSide(100, 3, 17)},
		{"tall-17x3", makeSide(0, 3, 17), makeSide(100, 2, 3)},
	}
	for _, shape := range shapes {
		for _, p := range []float64{0.05, 0.5, 0.95, 1} {
			for seed := uint64(1); seed <= 3; seed++ {
				full := collectStream(t, func(yield func(u, v int32) bool) error {
					return bipartiteStream(rng.New(seed), shape.a, shape.b, p, yield)
				})
				for stop := 0; stop <= len(full); stop++ {
					var prefix []graph.Edge
					err := bipartiteStream(rng.New(seed), shape.a, shape.b, p,
						func(u, v int32) bool {
							prefix = append(prefix, graph.Edge{U: u, V: v})
							return len(prefix) < stop
						})
					if err != nil {
						t.Fatal(err)
					}
					wantLen := stop
					if stop == 0 {
						wantLen = 1 // yield runs once before its verdict is read
					}
					if wantLen > len(full) {
						wantLen = len(full)
					}
					if len(prefix) != wantLen {
						t.Fatalf("%s p=%g seed=%d stop=%d: %d edges, want %d",
							shape.name, p, seed, stop, len(prefix), wantLen)
					}
					for i := range prefix {
						if prefix[i] != full[i] {
							t.Fatalf("%s p=%g seed=%d stop=%d: edge %d = %+v, want %+v",
								shape.name, p, seed, stop, i, prefix[i], full[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamValidation checks the streaming entry points reject bad node
// counts and probabilities.
func TestStreamValidation(t *testing.T) {
	yield := func(u, v int32) bool { return true }
	r := rng.New(1)
	if err := AppendErdosRenyiStream(r, -1, 0.5, yield); err == nil {
		t.Error("negative n: want error")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if err := AppendErdosRenyiStream(r, 10, p, yield); err == nil {
			t.Errorf("p=%v: want error", p)
		}
	}
	if err := subsetStream(r, []int32{1, 2}, -1, yield); err == nil {
		t.Error("subset p=-1: want error")
	}
	if err := bipartiteStream(r, []int32{1}, []int32{2}, 2, yield); err == nil {
		t.Error("bipartite p=2: want error")
	}
}

// TestAppendErdosRenyiMatchesErdosRenyi pins the streamed sampler, collected
// into one reused destination buffer, against the one-shot graph
// constructor.
func TestAppendErdosRenyiMatchesErdosRenyi(t *testing.T) {
	var buf []graph.Edge
	collect := func(u, v int32) bool {
		buf = append(buf, graph.Edge{U: u, V: v})
		return true
	}
	for _, p := range []float64{0, 0.07, 0.5, 1} {
		for trial := 0; trial < 4; trial++ {
			seed := uint64(3000 + trial)
			want, err := ErdosRenyi(rng.New(seed), 70, p)
			if err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
			if err := AppendErdosRenyiStream(rng.New(seed), 70, p, collect); err != nil {
				t.Fatal(err)
			}
			got, err := graph.NewFromEdges(70, buf)
			if err != nil {
				t.Fatal(err)
			}
			if want.M() != got.M() || !want.IsSpanningSubgraphOf(got) || !got.IsSpanningSubgraphOf(want) {
				t.Fatalf("p=%g trial %d: AppendErdosRenyiStream differs from ErdosRenyi", p, trial)
			}
		}
	}
	if err := AppendErdosRenyiStream(rng.New(1), -1, 0.5, collect); err == nil {
		t.Error("negative n: want error")
	}
	if err := AppendErdosRenyiStream(rng.New(1), 10, 1.5, collect); err == nil {
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
