package keys

import (
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// TestNewRingKeepsNegativeIDs is the regression test for the dedup sentinel
// bug: the loop used to seed its "previous" tracker with the in-band value
// −1, silently dropping a legitimate −1 key ID.
func TestNewRingKeepsNegativeIDs(t *testing.T) {
	r := NewRing([]ID{-1, 3})
	if r.Len() != 2 {
		t.Fatalf("NewRing([-1, 3]).Len() = %d, want 2 (ID -1 dropped by sentinel?)", r.Len())
	}
	if !r.Contains(-1) || !r.Contains(3) {
		t.Errorf("ring %v missing members", r.IDs())
	}
	// Duplicates of the former sentinel value still collapse.
	r = NewRing([]ID{-1, -1, -5, 3, -5})
	want := []ID{-5, -1, 3}
	got := r.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

// randomRings draws n rings of the given size from a pool, via the public
// scheme so the rings are realistic assignments.
func randomRings(t *testing.T, r *rng.Rand, pool, ring, n int) []Ring {
	t.Helper()
	s, err := NewQComposite(pool, ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.Assign(r, n)
	if err != nil {
		t.Fatal(err)
	}
	return asg.Rings
}

// TestIntersectorMatchesMerge is the property test for the density-adaptive
// path: across dense and sparse pool/ring ratios, the Intersector must agree
// exactly with the sorted-merge reference (SharedWith/SharedCount) on count,
// membership and order, whichever strategy it selects.
func TestIntersectorMatchesMerge(t *testing.T) {
	r := rng.New(7)
	cases := []struct {
		pool, ring int
		wantDense  bool
	}{
		{pool: 64, ring: 16, wantDense: true},    // pool ≪ denseRingFactor·K
		{pool: 2048, ring: 16, wantDense: true},  // boundary: pool = 128·K
		{pool: 2049, ring: 16, wantDense: false}, // just past the boundary
		{pool: 4096, ring: 8, wantDense: false},  // sparse rings
	}
	for _, tc := range cases {
		const n = 24
		rings := randomRings(t, r, tc.pool, tc.ring, n)
		ix, err := NewIntersector(tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		// Reset twice: the second pass exercises bitset reuse after Clear.
		for pass := 0; pass < 2; pass++ {
			if err := ix.Reset(rings); err != nil {
				t.Fatal(err)
			}
			if ix.Dense() != tc.wantDense {
				t.Errorf("pool=%d ring=%d: Dense() = %v, want %v",
					tc.pool, tc.ring, ix.Dense(), tc.wantDense)
			}
			for u := int32(0); u < n; u++ {
				for v := u + 1; v < n; v++ {
					wantShared := rings[u].SharedWith(rings[v])
					if got := ix.SharedCount(u, v); got != len(wantShared) {
						t.Fatalf("pool=%d: SharedCount(%d,%d) = %d, want %d",
							tc.pool, u, v, got, len(wantShared))
					}
					gotShared := ix.AppendShared(u, v, nil)
					if len(gotShared) != len(wantShared) {
						t.Fatalf("pool=%d: AppendShared(%d,%d) = %v, want %v",
							tc.pool, u, v, gotShared, wantShared)
					}
					for i := range wantShared {
						if gotShared[i] != wantShared[i] {
							t.Fatalf("pool=%d: AppendShared(%d,%d) = %v, want %v",
								tc.pool, u, v, gotShared, wantShared)
						}
					}
					for q := 0; q <= len(wantShared)+1; q++ {
						if got := ix.HasAtLeast(u, v, q); got != (len(wantShared) >= q) {
							t.Fatalf("pool=%d: HasAtLeast(%d,%d,%d) = %v with %d shared",
								tc.pool, u, v, q, got, len(wantShared))
						}
					}
				}
			}
		}
	}
}

// TestFilterAtLeastMatchesHasAtLeast pins the batch kernel to the per-pair
// predicate on both strategies: for every q — including 0, and K, where
// only identical rings qualify — FilterAtLeast must keep exactly the pairs
// HasAtLeast accepts, in order, appended after whatever keep already held.
// The batches include (u, u) pairs, and the empty batch appends nothing.
func TestFilterAtLeastMatchesHasAtLeast(t *testing.T) {
	r := rng.New(17)
	for _, tc := range []struct {
		pool, ring int
		wantDense  bool
	}{
		{pool: 512, ring: 32, wantDense: true}, // the streaming ladder's rung
		{pool: 64, ring: 16, wantDense: true},
		{pool: 4096, ring: 8, wantDense: false},
	} {
		const n = 40
		rings := randomRings(t, r, tc.pool, tc.ring, n)
		ix, err := NewIntersector(tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Reset(rings); err != nil {
			t.Fatal(err)
		}
		if ix.Dense() != tc.wantDense {
			t.Fatalf("pool=%d ring=%d: Dense() = %v, want %v", tc.pool, tc.ring, ix.Dense(), tc.wantDense)
		}
		var pairs [][2]int32
		for u := int32(0); u < n; u++ {
			for v := u; v < n; v++ {
				pairs = append(pairs, [2]int32{u, v})
			}
		}
		for _, q := range []int{0, 1, 2, 3, tc.ring} {
			for _, batch := range [][][2]int32{pairs, pairs[:0], pairs[5:6], pairs[100:357]} {
				prefix := []int32{-7, -8}
				var want []int32
				for i, p := range batch {
					if ix.HasAtLeast(p[0], p[1], q) {
						want = append(want, int32(i))
					}
				}
				got := ix.FilterAtLeast(batch, q, prefix)
				if len(got) != len(prefix)+len(want) || got[0] != -7 || got[1] != -8 {
					t.Fatalf("pool=%d q=%d batch of %d: kept %d after the prefix, want %d",
						tc.pool, q, len(batch), len(got)-len(prefix), len(want))
				}
				for i, w := range want {
					if got[len(prefix)+i] != w {
						t.Fatalf("pool=%d q=%d: kept %v, want %v", tc.pool, q, got[len(prefix):], want)
					}
				}
			}
		}
	}
}

// TestIntersectorRejectsOutOfPoolKeys pins Reset's validation on both
// strategies: a key ID at or past the pool, or a negative one, is an error
// whether the rings select the bitmap arena or the sorted merge.
func TestIntersectorRejectsOutOfPoolKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool int
		bad  ID
	}{
		{name: "dense/past-pool", pool: 64, bad: 64},
		{name: "dense/negative", pool: 64, bad: -1},
		{name: "sparse/past-pool", pool: 4096, bad: 4096},
		{name: "sparse/negative", pool: 4096, bad: -1},
	} {
		ix, err := NewIntersector(tc.pool)
		if err != nil {
			t.Fatal(err)
		}
		rings := []Ring{NewRing([]ID{1, 2, 3}), NewRing([]ID{2, 3, tc.bad})}
		if err := ix.Reset(rings); err == nil {
			t.Errorf("%s: Reset accepted key %d in pool %d", tc.name, tc.bad, tc.pool)
		}
		// A valid assignment afterwards resets cleanly.
		if err := ix.Reset(rings[:1]); err != nil {
			t.Errorf("%s: Reset after rejection: %v", tc.name, err)
		}
	}
}

// ringRoute names the materialization route appendRing takes for a pool
// and ring size.
func ringRoute(pool, ring int) string {
	if ((pool+63)/64+63)/64 <= ring {
		return "two-level"
	}
	return "sort"
}

// TestAssignIntoMatchesAssign pins the determinism contract of the arena
// path: for equal generator seeds, AssignInto must produce exactly the rings
// Assign does (which always sorts) — including across arena reuse and a
// change of pool, on both materialization routes and at their boundary:
// ⌈P/4096⌉ = K takes the two-level bitmap, ⌈P/4096⌉ = K + 1 the sort.
func TestAssignIntoMatchesAssign(t *testing.T) {
	var arena RingArena
	for _, tc := range []struct {
		pool, ring int
		route      string
	}{
		{pool: 500, ring: 40, route: "two-level"},
		{pool: 512, ring: 32, route: "two-level"},
		{pool: 512, ring: 8, route: "two-level"},
		{pool: 513, ring: 8, route: "two-level"},
		{pool: 449, ring: 7, route: "two-level"},
		{pool: 448, ring: 7, route: "two-level"},
		{pool: 64, ring: 64, route: "two-level"}, // the whole pool
		{pool: 4096, ring: 1, route: "two-level"},
		{pool: 8192, ring: 2, route: "two-level"}, // ⌈P/4096⌉ = K
		{pool: 8193, ring: 2, route: "sort"},      // ⌈P/4096⌉ = K + 1
		{pool: 10000, ring: 60, route: "two-level"},
		{pool: 1_000_000, ring: 60, route: "sort"},
	} {
		if got := ringRoute(tc.pool, tc.ring); got != tc.route {
			t.Fatalf("pool=%d ring=%d: route rule says %s, case says %s", tc.pool, tc.ring, got, tc.route)
		}
		s, err := NewQComposite(tc.pool, tc.ring, 1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 60
		wantAsg, err := s.Assign(rng.New(99), n)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			gotAsg, err := s.AssignInto(rng.New(99), n, &arena)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRings(t, gotAsg.Rings, wantAsg.Rings)
		}
	}
}

// TestHeterogeneousAssignIntoMixesRules covers a mixture whose classes take
// both materialization routes (P = 10000: the 2-key class sorts, the 30-
// and 160-key classes take the two-level bitmap) against a reference that
// replays the same draws — one label-stream seed, then one subset per
// sensor — and sorts every ring.
func TestHeterogeneousAssignIntoMixesRules(t *testing.T) {
	const pool = 10000
	classes := []Class{{Mu: 0.4, RingSize: 2}, {Mu: 0.3, RingSize: 30}, {Mu: 0.3, RingSize: 160}}
	for c, want := range []string{"sort", "two-level", "two-level"} {
		if got := ringRoute(pool, classes[c].RingSize); got != want {
			t.Fatalf("class %d: route %s, want %s", c, got, want)
		}
	}
	s, err := NewHeterogeneous(pool, 1, classes)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var arena RingArena
	got, err := s.AssignInto(rng.New(5), n, &arena)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	r.Uint64() // the label sub-stream's seed
	sampler, err := rng.NewSubsetSampler(pool)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Ring, n)
	for v := range want {
		ids, err := sampler.AppendSample(r, classes[got.Labels[v]].RingSize, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[v] = NewRing(ids)
	}
	requireSameRings(t, got.Rings, want)
}

// requireSameRings asserts ring-for-ring equality.
func requireSameRings(t *testing.T, got, want []Ring) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rings, want %d", len(got), len(want))
	}
	for v := range want {
		w, g := want[v].IDs(), got[v].IDs()
		if len(w) != len(g) {
			t.Fatalf("ring %d has %d keys, want %d", v, len(g), len(w))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("ring %d = %v, want %v", v, g, w)
			}
		}
	}
}

// FuzzNewRing fuzzes the sort/dedup invariants over arbitrary ID sets,
// negative values included.
func FuzzNewRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := make([]ID, 0, len(data)/4)
		for i := 0; i+3 < len(data); i += 4 {
			ids = append(ids, ID(uint32(data[i])|uint32(data[i+1])<<8|
				uint32(data[i+2])<<16|uint32(data[i+3])<<24))
		}
		ring := NewRing(ids)
		got := ring.IDs()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("IDs not strictly ascending: %v", got)
			}
		}
		seen := map[ID]bool{}
		for _, k := range ids {
			seen[k] = true
			if !ring.Contains(k) {
				t.Fatalf("ring dropped ID %d (input %v, got %v)", k, ids, got)
			}
		}
		if len(got) != len(seen) {
			t.Fatalf("ring has %d keys, want %d distinct", len(got), len(seen))
		}
	})
}

// FuzzRingSortRoutes checks that the two ring materialization routes —
// sortDedup and the two-level bitmap scan — agree on any multiset of in-pool
// IDs, whatever the ring size, and that both scratch levels are all-zero
// afterwards. The pool is in [1, 2²⁰]; the IDs are the
// data's 4-byte words modulo the pool, so duplicates occur.
func FuzzRingSortRoutes(f *testing.F) {
	f.Add(uint32(10000), []byte{1, 0, 0, 0, 1, 0, 0, 0, 15, 39, 0, 0, 0, 16, 0, 0})
	f.Add(uint32(0), []byte{0, 0, 0, 0})
	f.Add(uint32(1<<20-1), []byte{255, 255, 255, 255, 0, 0, 16, 0, 0, 16, 0, 0})
	f.Add(uint32(4095), []byte{})
	var arena RingArena
	f.Fuzz(func(t *testing.T, poolWord uint32, data []byte) {
		pool := int(poolWord%(1<<20)) + 1
		ids := make([]ID, 0, len(data)/4)
		for i := 0; i+3 < len(data); i += 4 {
			w := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
			ids = append(ids, ID(w%uint32(pool)))
		}
		if _, err := arena.ensureSampler(pool); err != nil {
			t.Fatal(err)
		}
		want := sortDedup(slices.Clone(ids))
		if got := arena.appendSortedByBitmap(nil, ids); !slices.Equal(got, want) {
			t.Fatalf("pool %d, IDs %v: two-level %v, sortDedup %v", pool, ids, got, want)
		}
		for i, w := range arena.bitmap {
			if w != 0 {
				t.Fatalf("pool %d: bitmap word %d = %#x left over", pool, i, w)
			}
		}
		for i, w := range arena.summary {
			if w != 0 {
				t.Fatalf("pool %d: summary word %d = %#x left over", pool, i, w)
			}
		}
	})
}

// BenchmarkIntersectorHasAtLeast measures the hot predicate of streaming
// discovery in its ladder configuration (P = 512, K = 32, q = 2: dense,
// stride 8 — one cache line per ring) over n = 100000 rings, with the access
// pattern the edge emitters produce: sequential u, uniform random v. This is
// the latency-bound load the flat-arena layout exists for.
func BenchmarkIntersectorHasAtLeast(b *testing.B) {
	const (
		pool = 512
		ring = 32
		q    = 2
		n    = 100_000
	)
	s, err := NewQComposite(pool, ring, q)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := s.Assign(rng.New(11), n)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIntersector(pool)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Reset(asg.Rings); err != nil {
		b.Fatal(err)
	}
	if !ix.Dense() {
		b.Fatal("ladder configuration should select the dense strategy")
	}
	r := rng.New(12)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(i % n)
		v := int32(r.Uint64() % n)
		if ix.HasAtLeast(u, v, q) {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
}

// BenchmarkAssignInto measures ring assignment — subset draws plus ring
// materialization — for n = 100000 sensors, one op per assignment, on both
// materialization routes: the streaming ladder's P = 512, K = 32 and a
// Figure 1 point's P = 10000, K = 60 (two-level bitmap), and a pool too
// large for it, P = 10⁶, K = 60 (sort).
func BenchmarkAssignInto(b *testing.B) {
	const n = 100_000
	for _, c := range []struct {
		name       string
		pool, ring int
	}{
		{name: "P=512/K=32/two-level", pool: 512, ring: 32},
		{name: "P=10000/K=60/two-level", pool: 10000, ring: 60},
		{name: "P=1000000/K=60/sort", pool: 1_000_000, ring: 60},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewQComposite(c.pool, c.ring, 2)
			if err != nil {
				b.Fatal(err)
			}
			var arena RingArena
			r := rng.New(3)
			if _, err := s.AssignInto(r, n, &arena); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AssignInto(r, n, &arena); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*c.ring), "ns/key")
		})
	}
}

// BenchmarkIntersectorFilterAtLeast measures the batched shared-key test of
// the streaming Intersector path against the per-pair HasAtLeast, per pair,
// on the n = 10⁶ ladder rung (P = 512, K = 32, q = 2: a 64 MB dense arena,
// far past L2, so each v row is a cache miss). Pairs follow the emitters'
// pattern — u advancing every rowPairs pairs, v uniform — in batches of 256,
// as wsn.Deployer flushes them.
func BenchmarkIntersectorFilterAtLeast(b *testing.B) {
	const (
		pool     = 512
		ring     = 32
		q        = 2
		n        = 1_000_000
		rowPairs = 186 // emitted pairs per row at p = 8·ln n/(0.594·n)
		batch    = 256
		recorded = 1 << 20
	)
	s, err := NewQComposite(pool, ring, q)
	if err != nil {
		b.Fatal(err)
	}
	var arena RingArena
	asg, err := s.AssignInto(rng.New(11), n, &arena)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := NewIntersector(pool)
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.Reset(asg.Rings); err != nil {
		b.Fatal(err)
	}
	if !ix.Dense() {
		b.Fatal("ladder configuration should select the dense strategy")
	}
	r := rng.New(12)
	pairs := make([][2]int32, recorded)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i / rowPairs), int32(r.Uint64() % n)}
	}
	// run tests b.N pairs, batch by batch, cycling through the recording.
	run := func(b *testing.B, test func(batch [][2]int32, keep []int32) []int32) {
		keep := make([]int32, 0, batch)
		hits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += batch {
			lo := done % recorded
			m := min(batch, b.N-done, recorded-lo)
			keep = test(pairs[lo:lo+m], keep[:0])
			hits += len(keep)
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hit/op")
	}
	b.Run("FilterAtLeast", func(b *testing.B) {
		run(b, func(batch [][2]int32, keep []int32) []int32 {
			return ix.FilterAtLeast(batch, q, keep)
		})
	})
	b.Run("HasAtLeast", func(b *testing.B) {
		run(b, func(batch [][2]int32, keep []int32) []int32 {
			for i, p := range batch {
				if ix.HasAtLeast(p[0], p[1], q) {
					keep = append(keep, int32(i))
				}
			}
			return keep
		})
	})
}
