package keys

import (
	"fmt"
	"math/bits"
	"slices"
)

// denseRingFactor selects the Intersector strategy: the flat-bitmap path
// scans pool/64 words per query while the sorted merge scans up to 2·K
// elements, so word-parallel intersection wins once pool ≤
// denseRingFactor·K (i.e. the word count drops below the merge length).
const denseRingFactor = 128

// Intersector answers ring-intersection queries over a fixed set of rings
// with a density-adaptive strategy: when rings are dense relative to the pool
// (K ≥ pool/denseRingFactor) it indexes every ring as a pool-width bitmap and
// intersects word-parallel; otherwise it falls back to the sorted merge of
// Ring.SharedCount/SharedWith. Both strategies are exact, so query results
// are identical either way.
//
// The dense index is one flat word arena — ring i occupies
// flat[i·stride : (i+1)·stride] — rather than per-ring bitset objects: the
// query pattern of streaming discovery (sequential u, random v) is
// memory-latency-bound, and the flat layout costs one cache miss per ring
// instead of the pointer-chase's two to three. At the streaming-ladder
// design point (P = 512, stride = 8) each ring is exactly one cache line.
//
// An Intersector amortizes its arena across Reset calls, making it suitable
// for repeated deployments. It is not safe for concurrent use.
type Intersector struct {
	pool   int
	rings  []Ring
	dense  bool
	stride int
	flat   []uint64
	touch  uint64 // sink of FilterAtLeast's load pass, so it is not elided
}

// NewIntersector returns an Intersector over rings drawn from a pool of the
// given size.
func NewIntersector(pool int) (*Intersector, error) {
	if pool <= 0 {
		return nil, fmt.Errorf("keys: intersector pool size %d must be positive", pool)
	}
	return &Intersector{pool: pool, stride: (pool + 63) / 64}, nil
}

// Reset points the Intersector at a new set of rings (typically one
// deployment's assignment) and rebuilds its index if the dense strategy is
// selected. Ring IDs must lie in [0, pool); both strategies reject an
// out-of-pool ID, checked at each sorted ring's ends.
func (x *Intersector) Reset(rings []Ring) error {
	x.rings = rings
	x.dense = false
	minRing := 0
	for i, r := range rings {
		if i == 0 || r.Len() < minRing {
			minRing = r.Len()
		}
		if n := r.Len(); n > 0 {
			if lo, hi := r.ids[0], r.ids[n-1]; lo < 0 || int(hi) >= x.pool {
				return fmt.Errorf("keys: intersector: ring %d spans keys [%d,%d], outside pool [0,%d)", i, lo, hi, x.pool)
			}
		}
	}
	x.dense = len(rings) > 0 && x.pool <= denseRingFactor*minRing
	if !x.dense {
		return nil
	}
	need := x.stride * len(rings)
	if cap(x.flat) < need {
		x.flat = make([]uint64, need)
	} else {
		x.flat = x.flat[:need]
		clear(x.flat)
	}
	for i, r := range rings {
		row := x.flat[i*x.stride : (i+1)*x.stride]
		for _, k := range r.ids {
			row[k/64] |= 1 << (uint(k) % 64)
		}
	}
	return nil
}

// Dense reports whether the flat-bitmap strategy is active (exported for
// tests and benchmarks; callers get identical answers either way).
func (x *Intersector) Dense() bool { return x.dense }

// row returns ring i's words in the dense arena.
func (x *Intersector) row(i int32) []uint64 {
	return x.flat[int(i)*x.stride : (int(i)+1)*x.stride]
}

// SharedCount returns |ring(u) ∩ ring(v)| without allocating.
func (x *Intersector) SharedCount(u, v int32) int {
	if x.dense {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
		}
		return c
	}
	return x.rings[u].SharedCount(x.rings[v])
}

// HasAtLeast reports whether rings u and v share at least q keys. It is the
// hot predicate of shared-key discovery — every emitted channel edge of a
// streaming deployment passes through here — and short-circuits where the
// representation allows.
func (x *Intersector) HasAtLeast(u, v int32, q int) bool {
	if q <= 0 {
		return true
	}
	if x.dense {
		a, b := x.row(u), x.row(v)
		c := 0
		for i, w := range a {
			c += bits.OnesCount64(w & b[i])
			if c >= q {
				return true
			}
		}
		return false
	}
	return x.rings[u].SharedAtLeast(x.rings[v], q)
}

// FilterAtLeast appends to keep the index i of every pairs[i] whose rings
// share at least q keys, in ascending order, and returns the extended slice:
// HasAtLeast over a batch. Give keep a capacity of len(keep)+len(pairs) to
// stay allocation-free.
//
// On the dense strategy it is built to hide memory latency, since at large
// n each pair's v row is a cache miss. A first pass loads one word of every
// v row; the loop is short, so many misses are in flight at once. The
// second pass is branch-free: it popcounts the full rows with no early exit
// and advances the write cursor by the verdict arithmetically, so a
// mispredicted verdict cannot stall the loads behind it.
func (x *Intersector) FilterAtLeast(pairs [][2]int32, q int, keep []int32) []int32 {
	if q <= 0 {
		for i := range pairs {
			keep = append(keep, int32(i))
		}
		return keep
	}
	if !x.dense {
		for i, p := range pairs {
			if x.rings[p[0]].SharedAtLeast(x.rings[p[1]], q) {
				keep = append(keep, int32(i))
			}
		}
		return keep
	}
	var touch uint64
	for _, p := range pairs {
		touch ^= x.flat[int(p[1])*x.stride]
	}
	x.touch = touch
	n := len(keep)
	keep = slices.Grow(keep, len(pairs))[:n+len(pairs)]
	for i, p := range pairs {
		a, b := x.row(p[0]), x.row(p[1])
		b = b[:len(a)]
		c := 0
		for j, w := range a {
			c += bits.OnesCount64(w & b[j])
		}
		keep[n] = int32(i)
		// c ≥ q ⇔ q−1−c < 0: the sign bit is the verdict.
		n += int(uint(q-1-c) >> (bits.UintSize - 1))
	}
	return keep[:n]
}

// AppendShared appends the sorted shared keys of rings u and v to dst and
// returns the extended slice.
func (x *Intersector) AppendShared(u, v int32, dst []ID) []ID {
	if x.dense {
		a, b := x.row(u), x.row(v)
		for i, w := range a {
			w &= b[i]
			base := i * 64
			for w != 0 {
				dst = append(dst, ID(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return dst
	}
	return x.rings[u].AppendShared(x.rings[v], dst)
}
