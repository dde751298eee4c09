package keys

import (
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

// TestAssignIntoMatchesAssign pins the determinism contract of the arena
// path: for equal generator seeds, AssignInto must produce exactly the rings
// Assign does — including across arena reuse.
func TestAssignIntoMatchesAssign(t *testing.T) {
	s, err := NewQComposite(500, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	wantAsg, err := s.Assign(rng.New(99), n)
	if err != nil {
		t.Fatal(err)
	}
	want := wantAsg.Rings
	var arena RingArena
	for pass := 0; pass < 3; pass++ {
		gotAsg, err := s.AssignInto(rng.New(99), n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		got := gotAsg.Rings
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d rings, want %d", pass, len(got), len(want))
		}
		for v := range want {
			w, g := want[v].IDs(), got[v].IDs()
			if len(w) != len(g) {
				t.Fatalf("pass %d: ring %d has %d keys, want %d", pass, v, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("pass %d: ring %d = %v, want %v", pass, v, g, w)
				}
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
