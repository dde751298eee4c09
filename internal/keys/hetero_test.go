package keys

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestNewHeterogeneousValidation(t *testing.T) {
	valid := []Class{{Mu: 0.5, RingSize: 10}, {Mu: 0.5, RingSize: 20}}
	if _, err := NewHeterogeneous(100, 1, valid); err != nil {
		t.Fatalf("valid scheme rejected: %v", err)
	}
	cases := []struct {
		name    string
		pool, q int
		classes []Class
	}{
		{name: "no classes", pool: 100, q: 1, classes: nil},
		{name: "q zero", pool: 100, q: 0, classes: valid},
		{name: "ring below q", pool: 100, q: 3, classes: []Class{{Mu: 1, RingSize: 2}}},
		{name: "ring above pool", pool: 15, q: 1, classes: valid},
		{name: "mu zero", pool: 100, q: 1, classes: []Class{{Mu: 0, RingSize: 10}, {Mu: 1, RingSize: 20}}},
		{name: "mu negative", pool: 100, q: 1, classes: []Class{{Mu: -0.2, RingSize: 10}, {Mu: 1.2, RingSize: 20}}},
		{name: "mu nan", pool: 100, q: 1, classes: []Class{{Mu: math.NaN(), RingSize: 10}, {Mu: 0.5, RingSize: 20}}},
		{name: "mu sum below one", pool: 100, q: 1, classes: []Class{{Mu: 0.4, RingSize: 10}, {Mu: 0.4, RingSize: 20}}},
		{name: "mu sum above one", pool: 100, q: 1, classes: []Class{{Mu: 0.7, RingSize: 10}, {Mu: 0.7, RingSize: 20}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewHeterogeneous(tc.pool, tc.q, tc.classes); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// Too many classes for uint8 labels.
	many := make([]Class, MaxClasses+1)
	for i := range many {
		many[i] = Class{Mu: 1 / float64(len(many)), RingSize: 5}
	}
	if _, err := NewHeterogeneous(100, 1, many); err == nil {
		t.Error("MaxClasses+1 classes accepted")
	}
}

func TestHeterogeneousAccessors(t *testing.T) {
	classes := []Class{{Mu: 0.25, RingSize: 8}, {Mu: 0.75, RingSize: 32}}
	s, err := NewHeterogeneous(500, 2, classes)
	if err != nil {
		t.Fatal(err)
	}
	if s.PoolSize() != 500 || s.RequiredOverlap() != 2 {
		t.Errorf("accessors: pool %d, q %d", s.PoolSize(), s.RequiredOverlap())
	}
	got := s.Classes()
	if len(got) != 2 || got[0] != classes[0] || got[1] != classes[1] {
		t.Errorf("Classes() = %v", got)
	}
	// Returned slice is a copy.
	got[0].RingSize = 999
	if s.Classes()[0].RingSize != 8 {
		t.Error("Classes() exposes internal state")
	}
	if MaxRingSize(s) != 32 {
		t.Errorf("MaxRingSize = %d", MaxRingSize(s))
	}
	if s.Name() == "" {
		t.Error("empty name")
	}
}

// TestHeterogeneousClassStatistics is the mixing-distribution test: over a
// large assignment, class label frequencies must match μ within binomial
// noise, and every ring's size must equal its class's ring size exactly.
func TestHeterogeneousClassStatistics(t *testing.T) {
	const (
		pool = 5000
		n    = 20000
	)
	classes := []Class{
		{Mu: 0.5, RingSize: 10},
		{Mu: 0.3, RingSize: 25},
		{Mu: 0.2, RingSize: 60},
	}
	s, err := NewHeterogeneous(pool, 1, classes)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.Assign(rng.New(11), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg.Rings) != n || len(asg.Labels) != n {
		t.Fatalf("assignment sizes: %d rings, %d labels", len(asg.Rings), len(asg.Labels))
	}
	counts := make([]int, len(classes))
	for v, ring := range asg.Rings {
		label := asg.Label(v)
		if label < 0 || label >= len(classes) {
			t.Fatalf("sensor %d label %d out of range", v, label)
		}
		counts[label]++
		if ring.Len() != classes[label].RingSize {
			t.Fatalf("sensor %d (class %d) ring size %d, want %d",
				v, label, ring.Len(), classes[label].RingSize)
		}
		ring.ForEachID(func(k ID) bool {
			if k < 0 || int(k) >= pool {
				t.Fatalf("sensor %d key %d outside pool", v, k)
			}
			return true
		})
	}
	for i, c := range classes {
		want := c.Mu * n
		sigma := math.Sqrt(n * c.Mu * (1 - c.Mu))
		if math.Abs(float64(counts[i])-want) > 6*sigma {
			t.Errorf("class %d frequency %d, want %v ± %v", i, counts[i], want, 6*sigma)
		}
	}
}

// TestHeterogeneousAssignIntoMatchesAssign pins the arena path's
// determinism, labels included, across arena reuse.
func TestHeterogeneousAssignIntoMatchesAssign(t *testing.T) {
	s, err := NewHeterogeneous(300, 1, []Class{{Mu: 0.6, RingSize: 8}, {Mu: 0.4, RingSize: 24}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 80
	want, err := s.Assign(rng.New(42), n)
	if err != nil {
		t.Fatal(err)
	}
	var arena RingArena
	for pass := 0; pass < 3; pass++ {
		got, err := s.AssignInto(rng.New(42), n, &arena)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			if got.Label(v) != want.Label(v) {
				t.Fatalf("pass %d: sensor %d label %d, want %d", pass, v, got.Label(v), want.Label(v))
			}
			w, g := want.Rings[v].IDs(), got.Rings[v].IDs()
			if len(w) != len(g) {
				t.Fatalf("pass %d: ring %d size %d, want %d", pass, v, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("pass %d: ring %d = %v, want %v", pass, v, g, w)
				}
			}
		}
	}
}

// TestOneClassHeterogeneousMatchesQComposite is the scheme-level half of the
// 1-class equivalence contract: with a single class, Heterogeneous must
// consume randomness exactly as QComposite does and produce identical rings
// with no labels (the wsn-level test extends this to whole deployments).
func TestOneClassHeterogeneousMatchesQComposite(t *testing.T) {
	const (
		pool = 400
		ring = 30
		q    = 2
		n    = 100
	)
	hs, err := NewHeterogeneous(pool, q, []Class{{Mu: 1, RingSize: ring}})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := NewQComposite(pool, ring, q)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		want, err := qs.Assign(rng.New(seed), n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hs.Assign(rng.New(seed), n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Labels != nil {
			t.Fatal("single-class assignment allocated labels")
		}
		for v := 0; v < n; v++ {
			w, g := want.Rings[v].IDs(), got.Rings[v].IDs()
			if len(w) != len(g) {
				t.Fatalf("seed %d: ring %d size %d, want %d", seed, v, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("seed %d: ring %d = %v, want %v", seed, v, g, w)
				}
			}
		}
	}
}

// FuzzHeterogeneousClassBoundaries fuzzes the class-boundary machinery:
// arbitrary mixture cuts and ring sizes must either be rejected by
// validation or produce assignments whose every label is in range and whose
// every ring matches its class's size exactly.
func FuzzHeterogeneousClassBoundaries(f *testing.F) {
	f.Add(uint64(1), 0.5, 0.25, uint8(3), uint8(9), uint8(27))
	f.Add(uint64(7), 0.999999, 1e-7, uint8(1), uint8(1), uint8(255))
	f.Add(uint64(0), 0.0, 0.0, uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, cut1, cut2 float64, k1, k2, k3 uint8) {
		classes := []Class{
			{Mu: cut1, RingSize: int(k1)},
			{Mu: cut2, RingSize: int(k2)},
			{Mu: 1 - cut1 - cut2, RingSize: int(k3)},
		}
		const pool = 256 // any uint8 ring size fits
		s, err := NewHeterogeneous(pool, 1, classes)
		if err != nil {
			t.Skip() // rejected by validation — nothing more to check
		}
		const n = 64
		asg, err := s.Assign(rng.New(seed), n)
		if err != nil {
			t.Fatalf("validated scheme failed to assign: %v", err)
		}
		if len(asg.Rings) != n {
			t.Fatalf("%d rings, want %d", len(asg.Rings), n)
		}
		for v, ring := range asg.Rings {
			label := asg.Label(v)
			if label < 0 || label >= len(classes) {
				t.Fatalf("sensor %d label %d out of range", v, label)
			}
			if ring.Len() != classes[label].RingSize {
				t.Fatalf("sensor %d (class %d) ring size %d, want %d",
					v, label, ring.Len(), classes[label].RingSize)
			}
			prev := ID(-1)
			bad := false
			ring.ForEachID(func(k ID) bool {
				if k <= prev || k < 0 || int(k) >= pool {
					bad = true
					return false
				}
				prev = k
				return true
			})
			if bad {
				t.Fatalf("sensor %d ring not sorted/deduped in pool: %v", v, ring.IDs())
			}
		}
	})
}
