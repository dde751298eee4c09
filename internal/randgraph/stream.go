package randgraph

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// Streaming edge enumeration on the batched rng.GeometricSource skip
// kernel: skip i consumes uniform i, and edges flow to a callback instead of
// a buffer, so a consumer (e.g. a union-find connectivity trial) never
// materializes the edge list.
//
// Randomness discipline: the kernel refills its uniform buffer in batches,
// so after any draw (early-exited or fully drained) the underlying generator
// parks at the next batch boundary rather than at the last uniform used.
// Callers sharing a generator across a draw and later consumers must treat
// the whole draw as one randomness commitment (per-trial streams, as
// montecarlo hands out, satisfy this trivially). When yield returns false
// the enumeration stops immediately and no further skips are consumed from
// the buffer.

// EmitErdosRenyi streams one G(n, p) draw edge by edge through the given
// skip kernel: each of the C(n,2) possible edges is present independently
// with probability p, pairs are enumerated in lexicographic order and
// skipped geometrically, and every present edge is passed to yield until it
// returns false. The source must be Reset to a generator; EmitErdosRenyi
// retargets its p and shares buffered randomness with any preceding Emit*
// call on the same source (the per-class-pair block sampler chains blocks
// that way).
func EmitErdosRenyi(src *rng.GeometricSource, n int, p float64, yield func(u, v int32) bool) error {
	if n < 0 {
		return fmt.Errorf("randgraph: negative node count %d", n)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	if p == 0 || n < 2 {
		return nil
	}
	if p == 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if !yield(int32(u), int32(v)) {
					return nil
				}
			}
		}
		return nil
	}
	src.SetP(p)
	// Geometric skipping across the flattened upper triangle. Skips beyond
	// the triangle end the walk regardless of magnitude, so capping them at
	// the slot count keeps the arithmetic below overflow-free without
	// changing any emitted edge (tiny p saturates Next at MaxInt).
	maxSkip := n * (n - 1) / 2
	u, v := 0, 0 // v is advanced before use; position (0,1) is slot 0
	for {
		skip := src.Next()
		if skip > maxSkip {
			skip = maxSkip
		}
		v += skip + 1
		for v >= n {
			overflow := v - n
			u++
			v = u + 1 + overflow
			if u >= n-1 {
				break
			}
		}
		if u >= n-1 || v >= n {
			return nil
		}
		if !yield(int32(u), int32(v)) {
			return nil
		}
	}
}

// AppendErdosRenyiStream is EmitErdosRenyi on a private kernel over r: one
// G(n, p) draw streamed to yield, the draw ErdosRenyi collects into a graph.
func AppendErdosRenyiStream(r *rng.Rand, n int, p float64, yield func(u, v int32) bool) error {
	var src rng.GeometricSource
	src.Reset(r)
	return EmitErdosRenyi(&src, n, p, yield)
}

// EmitErdosRenyiSubset streams G(|nodes|, p) drawn over the given node IDs
// through the given skip kernel: every unordered pair of distinct entries of
// nodes is an edge independently with probability p. Node IDs must be
// distinct. See EmitErdosRenyi for the kernel-sharing contract.
func EmitErdosRenyiSubset(src *rng.GeometricSource, nodes []int32, p float64, yield func(u, v int32) bool) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	m := len(nodes)
	if p == 0 || m < 2 {
		return nil
	}
	if p == 1 {
		for u := 0; u < m; u++ {
			for v := u + 1; v < m; v++ {
				if !yield(nodes[u], nodes[v]) {
					return nil
				}
			}
		}
		return nil
	}
	src.SetP(p)
	// Geometric skipping across the flattened upper triangle, emitting the
	// subset's node IDs; same overflow-free skip cap as EmitErdosRenyi.
	maxSkip := m * (m - 1) / 2
	u, v := 0, 0 // v is advanced before use; position (0,1) is slot 0
	for {
		skip := src.Next()
		if skip > maxSkip {
			skip = maxSkip
		}
		v += skip + 1
		for v >= m {
			overflow := v - m
			u++
			v = u + 1 + overflow
			if u >= m-1 {
				break
			}
		}
		if u >= m-1 || v >= m {
			return nil
		}
		if !yield(nodes[u], nodes[v]) {
			return nil
		}
	}
}

// EmitErdosRenyiBipartite streams independent Bernoulli(p) edges between
// every pair (a[i], b[j]) through the given skip kernel. The two sides must
// be disjoint. See EmitErdosRenyi for the kernel-sharing contract.
func EmitErdosRenyiBipartite(src *rng.GeometricSource, a, b []int32, p float64, yield func(u, v int32) bool) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	if p == 0 || len(a) == 0 || len(b) == 0 {
		return nil
	}
	if p == 1 {
		for _, u := range a {
			for _, v := range b {
				if !yield(u, v) {
					return nil
				}
			}
		}
		return nil
	}
	src.SetP(p)
	// Geometric skipping across the flattened |a|×|b| grid (slot = i·|b|+j).
	// The end-of-grid test runs on the raw skip BEFORE advancing the slot,
	// so a saturated MaxInt skip (tiny p) exits cleanly instead of
	// overflowing the position.
	cols := len(b)
	slot := -1
	total := len(a) * cols
	for {
		skip := src.Next()
		if skip >= total-slot-1 {
			return nil
		}
		slot += skip + 1
		if !yield(a[slot/cols], b[slot%cols]) {
			return nil
		}
	}
}
