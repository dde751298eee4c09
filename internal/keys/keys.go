// Package keys implements the key predistribution substrate: key pools, key
// rings, the Eschenauer–Gligor scheme (the q = 1 baseline) and the
// q-composite scheme of Chan, Perrig and Song that the paper analyses, plus
// shared-key discovery and link-key derivation.
//
// Keys are abstract identifiers: connectivity depends only on which key IDs
// two sensors share, so the package represents keys as dense int32 IDs into
// the pool and derives concrete link keys by hashing the shared IDs
// (mirroring the q-composite construction, where the pairwise link key is a
// hash of all shared keys).
package keys

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// ID identifies a key within a pool.
type ID = int32

// Ring is a sensor's key ring: a sorted set of key IDs drawn from the pool.
type Ring struct {
	ids []ID // sorted ascending, no duplicates
}

// NewRing builds a ring from the given IDs (copied, sorted, deduplicated).
func NewRing(ids []ID) Ring {
	cp := append([]ID(nil), ids...)
	return Ring{ids: sortDedup(cp)}
}

// sortDedup sorts ids in place and removes adjacent duplicates, returning the
// compacted prefix. The comparison is index-based rather than against an
// in-band sentinel, so every ID value — including negative ones — is kept.
// slices.Sort (not sort.Slice) matters here: this runs once per sensor per
// deployment, and the reflection-based sorter's two closures per call were
// most of the Deployer trial loop's residual allocations.
func sortDedup(ids []ID) []ID {
	slices.Sort(ids)
	out := ids[:0]
	for i, k := range ids {
		if i == 0 || k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// Len returns the number of keys in the ring.
func (r Ring) Len() int { return len(r.ids) }

// Contains reports whether the ring holds key k.
func (r Ring) Contains(k ID) bool {
	i := sort.Search(len(r.ids), func(i int) bool { return r.ids[i] >= k })
	return i < len(r.ids) && r.ids[i] == k
}

// IDs returns a copy of the ring's sorted key IDs.
func (r Ring) IDs() []ID { return append([]ID(nil), r.ids...) }

// ForEachID calls fn on each key ID in ascending order without copying.
// Iteration stops early if fn returns false.
func (r Ring) ForEachID(fn func(ID) bool) {
	for _, k := range r.ids {
		if !fn(k) {
			return
		}
	}
}

// SharedWith returns the keys present in both rings, by sorted merge.
func (r Ring) SharedWith(other Ring) []ID {
	return r.AppendShared(other, nil)
}

// AppendShared appends the keys present in both rings to dst (sorted merge)
// and returns the extended slice. Pass a reused buffer to avoid allocating on
// hot paths.
func (r Ring) AppendShared(other Ring, dst []ID) []ID {
	i, j := 0, 0
	for i < len(r.ids) && j < len(other.ids) {
		switch {
		case r.ids[i] == other.ids[j]:
			dst = append(dst, r.ids[i])
			i++
			j++
		case r.ids[i] < other.ids[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// SharedCount returns |r ∩ other| without allocating.
func (r Ring) SharedCount(other Ring) int {
	count := 0
	i, j := 0, 0
	for i < len(r.ids) && j < len(other.ids) {
		switch {
		case r.ids[i] == other.ids[j]:
			count++
			i++
			j++
		case r.ids[i] < other.ids[j]:
			i++
		default:
			j++
		}
	}
	return count
}

// SharedAtLeast reports whether |r ∩ other| ≥ q, short-circuiting as soon as
// the running count reaches q — the hot predicate of q-composite shared-key
// discovery on the sorted-merge path.
func (r Ring) SharedAtLeast(other Ring, q int) bool {
	if q <= 0 {
		return true
	}
	count := 0
	i, j := 0, 0
	for i < len(r.ids) && j < len(other.ids) {
		switch {
		case r.ids[i] == other.ids[j]:
			count++
			if count >= q {
				return true
			}
			i++
			j++
		case r.ids[i] < other.ids[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Class is one sensor class of a (possibly heterogeneous) key
// predistribution scheme: sensors belong to the class independently with
// probability Mu and draw RingSize keys from the shared pool.
type Class struct {
	// Mu is the class's mixing probability; a scheme's Mu values sum to 1.
	Mu float64
	// RingSize is K_i, the number of pool keys a class-i sensor receives.
	RingSize int
}

// MaxClasses bounds the number of sensor classes a scheme may declare;
// class labels travel as uint8 through assignments and channel models.
const MaxClasses = 256

// Assignment is the outcome of key predistribution for one deployment:
// per-sensor key rings plus the class labels that sized them.
type Assignment struct {
	// Rings holds one key ring per sensor.
	Rings []Ring
	// Labels holds the per-sensor class index into the scheme's Classes().
	// Single-class schemes leave it nil, meaning every sensor is class 0.
	Labels []uint8
}

// Label returns sensor v's class index.
func (a Assignment) Label(v int) int {
	if a.Labels == nil {
		return 0
	}
	return int(a.Labels[v])
}

// Scheme is a key predistribution scheme: it assigns class labels and key
// rings to sensors before deployment and fixes the overlap requirement for
// secure links. Ring sizes are per sensor — uniform schemes are the
// single-class special case.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// PoolSize returns P, the key pool size.
	PoolSize() int
	// RequiredOverlap returns q, the minimum number of shared keys two
	// sensors need to establish a secure link.
	RequiredOverlap() int
	// Classes returns the scheme's sensor-class profile in class-index
	// order. Homogeneous schemes return a single class with Mu = 1.
	Classes() []Class
	// Assign draws the class labels and key rings for n sensors.
	Assign(r *rng.Rand, n int) (Assignment, error)
}

// MaxRingSize returns the largest class ring size — the bound sizing
// per-sensor buffers (broadcast frames, merge scratch).
func MaxRingSize(s Scheme) int {
	classes := s.Classes()
	max := classes[0].RingSize
	for _, c := range classes[1:] {
		if c.RingSize > max {
			max = c.RingSize
		}
	}
	return max
}

// QComposite is the q-composite key predistribution scheme: each sensor
// receives a uniform K-subset of a P-key pool; two sensors can secure a link
// iff they share at least q keys. q = 1 recovers Eschenauer–Gligor.
type QComposite struct {
	pool int
	ring int
	q    int
}

var _ Scheme = (*QComposite)(nil)

// NewQComposite validates 1 ≤ q ≤ K ≤ P and returns the scheme.
func NewQComposite(pool, ring, q int) (*QComposite, error) {
	switch {
	case q < 1:
		return nil, fmt.Errorf("keys: overlap requirement q=%d must be ≥ 1", q)
	case ring < q:
		return nil, fmt.Errorf("keys: ring size %d below overlap requirement q=%d", ring, q)
	case pool < ring:
		return nil, fmt.Errorf("keys: pool size %d below ring size %d", pool, ring)
	}
	return &QComposite{pool: pool, ring: ring, q: q}, nil
}

// Name implements Scheme.
func (s *QComposite) Name() string {
	if s.q == 1 {
		return "eschenauer-gligor"
	}
	return fmt.Sprintf("%d-composite", s.q)
}

// PoolSize implements Scheme.
func (s *QComposite) PoolSize() int { return s.pool }

// RingSize returns K, the uniform per-sensor ring size of the 1-class
// scheme.
func (s *QComposite) RingSize() int { return s.ring }

// RequiredOverlap implements Scheme.
func (s *QComposite) RequiredOverlap() int { return s.q }

// Classes implements Scheme: one class holding every sensor.
func (s *QComposite) Classes() []Class {
	return []Class{{Mu: 1, RingSize: s.ring}}
}

// Assign implements Scheme: n independent uniform K-subsets of the pool.
func (s *QComposite) Assign(r *rng.Rand, n int) (Assignment, error) {
	if n < 0 {
		return Assignment{}, fmt.Errorf("keys: negative sensor count %d", n)
	}
	sampler, err := rng.NewSubsetSampler(s.pool)
	if err != nil {
		return Assignment{}, fmt.Errorf("keys: assign: %w", err)
	}
	rings := make([]Ring, n)
	var buf []ID
	for v := 0; v < n; v++ {
		buf, err = sampler.AppendSample(r, s.ring, buf[:0])
		if err != nil {
			return Assignment{}, fmt.Errorf("keys: assign sensor %d: %w", v, err)
		}
		rings[v] = NewRing(buf)
	}
	return Assignment{Rings: rings}, nil
}

// LinkKeySize is the size in bytes of derived link keys.
const LinkKeySize = sha256.Size

// DeriveLinkKey derives the pairwise link key from the shared keys of a
// q-composite link: SHA-256 over the sorted shared key IDs
// (k₁‖k₂‖…‖k_m in the Chan–Perrig–Song construction). More shared keys
// strictly strengthen the link: an adversary must know every one of them.
func DeriveLinkKey(shared []ID) [LinkKeySize]byte {
	sorted := shared
	if !sort.SliceIsSorted(shared, func(i, j int) bool { return shared[i] < shared[j] }) {
		sorted = append([]ID(nil), shared...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	}
	// Hash the big-endian concatenation k₁‖k₂‖…‖k_m. Shared sets are tiny
	// (a handful of keys beyond q), so a small stack buffer avoids heap
	// traffic on the materialization path.
	var stack [64]byte
	buf := stack[:0]
	if 4*len(sorted) > len(stack) {
		buf = make([]byte, 0, 4*len(sorted))
	}
	for _, k := range sorted {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k))
		buf = append(buf, b[:]...)
	}
	return sha256.Sum256(buf)
}
