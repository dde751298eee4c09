package channel

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// topologyFingerprint folds a graph's exact edge set (CSR order, U < V)
// into an FNV-1a hash, so two graphs collide only if they are (with
// overwhelming probability) edge-for-edge identical.
func topologyFingerprint(g *graph.Undirected) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(g.N()))
	mix(uint64(g.M()))
	g.ForEachEdge(func(u, v int32) bool {
		mix(uint64(uint32(u)))
		mix(uint64(uint32(v)))
		return true
	})
	return h
}

// TestSampledTopologiesPinnedPR6 pins the exact topologies every channel
// model produced at fixed seeds BEFORE the PR 7 sampler kernels landed
// (fingerprints recorded from the PR 6 per-draw rng.Geometric samplers).
// The kernelized GeometricSource batches its uniform refills but must
// consume uniform i for draw i, so these hashes are the bit-identity
// contract: any change to the uniform→edge mapping — a reordered draw, a
// fast-log shortcut, a flipped floor at an integer boundary — flips a hash
// and fails this test. Each case also pins the generator's next word after
// the draw, so a change in how much randomness a draw consumes fails too.
// The hashes and words were recorded from the graph-building Sample methods
// the emitters replaced; drawing through emittedGraph must reproduce both.
func TestSampledTopologiesPinnedPR6(t *testing.T) {
	classLabels := func(n int) []uint8 {
		labels := make([]uint8, n)
		for i := range labels {
			labels[i] = uint8(i % 3)
		}
		return labels
	}
	hetero := HeterOnOff{P: [][]float64{
		{0.9, 0.5, 0.2},
		{0.5, 0.6, 0.4},
		{0.2, 0.4, 0.8},
	}}
	cases := []struct {
		name string
		n    int
		seed uint64
		emit func(r *rng.Rand, n int, yield func(u, v int32) bool) error
		want uint64
		next uint64 // the generator's next word after the draw, pinned from Sample
	}{
		{"onoff-sparse", 200, 1, OnOff{P: 0.05}.EmitEdges, 0xba3fa24f5e863183, 0xc37ad23e3b838821},
		{"onoff-sparse", 200, 2, OnOff{P: 0.05}.EmitEdges, 0x27fbe6bab90f3c47, 0x48347f1f6e9fd5},
		{"onoff-dense", 80, 3, OnOff{P: 0.6}.EmitEdges, 0x3dc1790bc583db79, 0x7fd1961d30737dba},
		{"always-on", 50, 4, AlwaysOn{}.EmitEdges, 0xca59d4e0cbcad20b, 0xadf8773496a9b731},
		{"disk-plane", 100, 5, Disk{Radius: 0.2}.EmitEdges, 0x233a694a29b61582, 0x1050701e2f333474},
		{"disk-torus", 100, 6, Disk{Radius: 0.3, Torus: true}.EmitEdges, 0xa37fd29492a01eec, 0xa3299ff03dfeb8},
		{"disk-tiny-torus", 8, 7, Disk{Radius: 0.6, Torus: true}.EmitEdges, 0xa2fab28410055a71, 0x29ae2b86cc1365e5},
		{"hetero-single-class", 90, 8, HeterOnOff{P: [][]float64{{0.55}}}.EmitEdges, 0x89de8d0202dddced, 0xb348452410be14ee},
		{"hetero-classes", 90, 9, func(r *rng.Rand, n int, yield func(u, v int32) bool) error {
			return hetero.EmitClassEdges(r, n, classLabels(n), yield)
		}, 0x5af71eab669a9a53, 0xe388aed619b7afae},
		{"hetero-classes", 90, 10, func(r *rng.Rand, n int, yield func(u, v int32) bool) error {
			return hetero.EmitClassEdges(r, n, classLabels(n), yield)
		}, 0xe907228cf6893a61, 0xbc94a34cb5f56308},
	}
	for _, tc := range cases {
		r := rng.New(tc.seed)
		g := emittedGraph(t, tc.n, func(yield func(u, v int32) bool) error {
			return tc.emit(r, tc.n, yield)
		})
		if got := topologyFingerprint(g); got != tc.want {
			t.Errorf("%s seed=%d: topology fingerprint %#x, want %#x (PR 6 pinned)",
				tc.name, tc.seed, got, tc.want)
		}
		if next := r.Uint64(); next != tc.next {
			t.Errorf("%s seed=%d: next generator word %#x, want %#x", tc.name, tc.seed, next, tc.next)
		}
	}
}
