package channel

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestHeterOnOffValidate(t *testing.T) {
	good := HeterOnOff{P: [][]float64{{0.2, 0.5}, {0.5, 0.9}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	bad := []HeterOnOff{
		{P: nil},
		{P: [][]float64{{0.5, 0.5}}}, // not square
		{P: [][]float64{{1, 1, 1}, {1, 1, 1}, {1}}},            // ragged (regression: used to panic)
		{P: [][]float64{{0.5, 0.2}, {0.3, 0.5}}},               // asymmetric
		{P: [][]float64{{1.5}}},                                // entry > 1
		{P: [][]float64{{-0.1}}},                               // entry < 0
		{P: [][]float64{{math.NaN()}}},                         // NaN
		{P: [][]float64{{0.5, math.NaN()}, {math.NaN(), 0.5}}}, // NaN off-diagonal
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("matrix %d accepted: %v", i, m.P)
		}
	}
}

// TestHeterOnOffOneClassMatchesOnOff pins the degenerate case: a 1-class
// HeterOnOff must draw exactly the OnOff graph, through both EmitEdges and
// EmitClassEdges (nil labels), from the same stream, and leave the
// generator where OnOff does.
func TestHeterOnOffOneClassMatchesOnOff(t *testing.T) {
	const (
		n = 200
		p = 0.3
	)
	m := UniformHeterOnOff(1, p)
	for seed := uint64(0); seed < 3; seed++ {
		rw, rg, rc := rng.New(seed), rng.New(seed), rng.New(seed)
		want := drawn(t, OnOff{P: p}, rw, n)
		got := drawn(t, m, rg, n)
		gotC := emittedGraph(t, n, func(yield func(u, v int32) bool) error {
			return m.EmitClassEdges(rc, n, nil, yield)
		})
		if !sameGraph(want, got) || !sameGraph(want, gotC) {
			t.Fatalf("seed %d: 1-class draw differs from OnOff", seed)
		}
		if next := rw.Uint64(); rg.Uint64() != next || rc.Uint64() != next {
			t.Fatalf("seed %d: generators diverged after the draw", seed)
		}
	}
}

// TestHeterOnOffSampleClassesBlocks checks the class-structured draw: with
// p=[1 0; 0 1] every within-class pair is an edge and no cross-class pair
// is.
func TestHeterOnOffSampleClassesBlocks(t *testing.T) {
	m := HeterOnOff{P: [][]float64{{1, 0}, {0, 1}}}
	const n = 40
	labels := make([]uint8, n)
	for v := range labels {
		labels[v] = uint8(v % 2)
	}
	g := emittedGraph(t, n, func(yield func(u, v int32) bool) error {
		return m.EmitClassEdges(rng.New(1), n, labels, yield)
	})
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			same := labels[u] == labels[v]
			if g.HasEdge(u, v) != same {
				t.Fatalf("edge (%d,%d): got %v, want %v", u, v, g.HasEdge(u, v), same)
			}
		}
	}

	// A multi-class draw without labels is ill-defined and must error.
	if err := m.EmitEdges(rng.New(1), n, acceptAll); err == nil {
		t.Error("multi-class EmitEdges without labels accepted")
	}
	// Out-of-range label must error, not panic.
	if err := m.EmitClassEdges(rng.New(1), 3, []uint8{0, 2, 0}, acceptAll); err == nil {
		t.Error("out-of-range class label accepted")
	}
	// Label/count mismatch must error.
	if err := m.EmitClassEdges(rng.New(1), 3, []uint8{0, 1}, acceptAll); err == nil {
		t.Error("label count mismatch accepted")
	}
}
