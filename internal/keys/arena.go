package keys

import (
	"fmt"
	"math/bits"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// RingArena amortizes ring storage across repeated assignments: all key IDs
// of an assignment live in one flat backing slice and the Ring headers in one
// slice, so assigning n rings costs O(1) allocations after the first use.
//
// Each ring is materialized sorted and deduplicated without a comparison
// sort when ⌈P/4096⌉ ≤ K (every pool the repository's experiments use): the
// K drawn IDs are set as bits in a ⌈P/64⌉-word scratch bitmap and in a
// ⌈P/4096⌉-word summary whose bit i marks a nonzero bitmap word i, and
// extraction visits only the marked words — O(K + P/4096), no comparisons.
// Larger pools keep sortDedup. A ring is a set, so its sorted order is
// unique: both routes yield the same ring, and the sampler draws are the
// same whichever runs.
//
// Rings returned by an arena-backed assignment are views into the arena and
// remain valid only until the next assignment into the same arena. The zero
// value is ready to use.
type RingArena struct {
	ids     []ID
	rings   []Ring
	labels  []uint8  // per-sensor class labels of multi-class schemes
	buf     []ID     // per-ring scratch for sampling before sort/dedup
	bitmap  []uint64 // per-ring ⌈P/64⌉-word scratch, all-zero between rings
	summary []uint64 // bitmap's ⌈P/4096⌉-word summary, all-zero between rings
	sampler *rng.SubsetSampler
}

// ensureSampler returns a SubsetSampler over [0, pool), reusing the cached
// one when the pool matches. A SubsetSampler rolls its permutation back
// after every draw, so a cached one behaves exactly like a fresh one and
// can be reused across assignments (it is the arena's largest single
// buffer).
func (a *RingArena) ensureSampler(pool int) (*rng.SubsetSampler, error) {
	if a.sampler == nil || a.sampler.Universe() != pool {
		var err error
		a.sampler, err = rng.NewSubsetSampler(pool)
		if err != nil {
			return nil, fmt.Errorf("keys: assign: %w", err)
		}
		a.bitmap = make([]uint64, (pool+63)/64)
		a.summary = make([]uint64, (len(a.bitmap)+63)/64)
	}
	return a.sampler, nil
}

// reserve readies the arena for an assignment of n rings totalling totalIDs
// key IDs. The flat ID slice is reserved in full up front: it must not grow
// while rings are being appended, or earlier Ring views would alias a stale
// backing array.
func (a *RingArena) reserve(n, totalIDs int) {
	if cap(a.ids) < totalIDs {
		a.ids = make([]ID, 0, totalIDs)
	}
	a.ids = a.ids[:0]
	if cap(a.rings) < n {
		a.rings = make([]Ring, 0, n)
	}
	a.rings = a.rings[:0]
}

// appendRing samples one ring of the given size into the arena, sorted by
// the two-level bitmap when ⌈P/4096⌉ ≤ size and by sortDedup otherwise.
func (a *RingArena) appendRing(r *rng.Rand, sampler *rng.SubsetSampler, size int) error {
	buf, err := sampler.AppendSample(r, size, a.buf[:0])
	a.buf = buf
	if err != nil {
		return err
	}
	start := len(a.ids)
	if len(a.summary) <= size {
		a.ids = a.appendSortedByBitmap(a.ids, buf)
	} else {
		a.ids = append(a.ids, sortDedup(buf)...)
	}
	a.rings = append(a.rings, Ring{ids: a.ids[start:len(a.ids):len(a.ids)]})
	return nil
}

// appendSortedByBitmap appends the distinct IDs of ids (all in [0, P)) to
// dst in ascending order. It marks each ID in the scratch bitmap and its
// word in the summary, then visits only the marked words, clearing both
// levels as it goes so they are all-zero again afterwards.
func (a *RingArena) appendSortedByBitmap(dst, ids []ID) []ID {
	bm, summary := a.bitmap, a.summary
	for _, k := range ids {
		bm[k>>6] |= 1 << (uint(k) & 63)
		summary[k>>12] |= 1 << (uint(k>>6) & 63)
	}
	for j, s := range summary {
		if s == 0 {
			continue
		}
		summary[j] = 0
		for s != 0 {
			i := j<<6 | bits.TrailingZeros64(s)
			s &= s - 1
			w := bm[i]
			bm[i] = 0
			base := ID(i << 6)
			for w != 0 {
				dst = append(dst, base+ID(bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	}
	return dst
}

// ArenaAssigner is implemented by schemes that can assign key rings into a
// caller-provided arena, avoiding the per-ring allocations of Scheme.Assign.
// wsn.Deployer uses it when available.
type ArenaAssigner interface {
	Scheme
	// AssignInto draws the class labels and key rings for n sensors into
	// the arena. It must consume randomness exactly as Assign does, so that
	// a deployment is byte-identical whichever entry point is used.
	AssignInto(r *rng.Rand, n int, a *RingArena) (Assignment, error)
}

var _ ArenaAssigner = (*QComposite)(nil)

// AssignInto implements ArenaAssigner. It draws the same rings as Assign for
// the same generator state (same per-sensor subset draws, in order), but
// stores them in the arena.
func (s *QComposite) AssignInto(r *rng.Rand, n int, a *RingArena) (Assignment, error) {
	if n < 0 {
		return Assignment{}, fmt.Errorf("keys: negative sensor count %d", n)
	}
	sampler, err := a.ensureSampler(s.pool)
	if err != nil {
		return Assignment{}, err
	}
	a.reserve(n, n*s.ring)
	for v := 0; v < n; v++ {
		if err := a.appendRing(r, sampler, s.ring); err != nil {
			return Assignment{}, fmt.Errorf("keys: assign sensor %d: %w", v, err)
		}
	}
	return Assignment{Rings: a.rings}, nil
}
