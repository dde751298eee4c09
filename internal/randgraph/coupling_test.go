package randgraph

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// edgeSetFingerprint folds a graph's exact edge set (CSR order, U < V)
// into an FNV-1a hash, so two graphs collide only if they are (with
// overwhelming probability) edge-for-edge identical.
func edgeSetFingerprint(g *graph.Undirected) uint64 {
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

// TestSampleCoupledPinned pins the exact coupled pairs SampleCoupled draws
// at fixed seeds: both edge sets and the Coupled flag. The fingerprints
// were recorded from the original fused-sampler implementation, so any
// rewrite must consume the generator identically and build the same
// graphs.
func TestSampleCoupledPinned(t *testing.T) {
	const (
		n    = 200
		ring = 30
		pool = 2000
		q    = 2
		x    = 0.01
	)
	want := []struct {
		uniform, binomial uint64
		coupled           bool
	}{
		{0x0c7c6655f79afd2e, 0xb02f66e6da4b56de, true},
		{0x9d12bd9b7ff94152, 0xf130068f0df9dcbc, false},
		{0x00b63ca36a4ccc8d, 0x3caf229ea3c4c86f, true},
		{0xbe8f6631c730728c, 0x3cddf884528925bf, false},
		{0xb19572e95533d988, 0xdc9b356ddbdd1e38, false},
	}
	for seed, w := range want {
		pair, err := SampleCoupled(rng.New(uint64(seed)), n, ring, pool, q, x)
		if err != nil {
			t.Fatal(err)
		}
		u, b := edgeSetFingerprint(pair.Uniform), edgeSetFingerprint(pair.Binomial)
		if u != w.uniform || b != w.binomial || pair.Coupled != w.coupled {
			t.Errorf("seed %d: got {%#x, %#x, %v}, want {%#x, %#x, %v}",
				seed, u, b, pair.Coupled, w.uniform, w.binomial, w.coupled)
		}
	}
}
