package keys

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestNewRingSortsAndDedups(t *testing.T) {
	r := NewRing([]ID{5, 1, 5, 3, 1})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	ids := r.IDs()
	want := []ID{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	for _, k := range want {
		if !r.Contains(k) {
			t.Errorf("Contains(%d) = false", k)
		}
	}
	if r.Contains(2) || r.Contains(-1) {
		t.Error("Contains returned true for absent key")
	}
}

func TestRingIDsIsACopy(t *testing.T) {
	r := NewRing([]ID{1, 2})
	ids := r.IDs()
	ids[0] = 99
	if !r.Contains(1) {
		t.Error("mutating IDs() result affected the ring")
	}
}

func TestSharedWith(t *testing.T) {
	a := NewRing([]ID{1, 3, 5, 7})
	b := NewRing([]ID{3, 4, 7, 9})
	shared := a.SharedWith(b)
	if len(shared) != 2 || shared[0] != 3 || shared[1] != 7 {
		t.Errorf("SharedWith = %v, want [3 7]", shared)
	}
	if got := a.SharedCount(b); got != 2 {
		t.Errorf("SharedCount = %d, want 2", got)
	}
	if got := b.SharedCount(a); got != 2 {
		t.Errorf("SharedCount reversed = %d", got)
	}
	empty := NewRing(nil)
	if got := a.SharedCount(empty); got != 0 {
		t.Errorf("SharedCount with empty = %d", got)
	}
	if got := empty.SharedWith(a); len(got) != 0 {
		t.Errorf("empty SharedWith = %v", got)
	}
}

func TestNewQCompositeValidation(t *testing.T) {
	tests := []struct {
		name          string
		pool, ring, q int
	}{
		{name: "q zero", pool: 10, ring: 5, q: 0},
		{name: "ring below q", pool: 10, ring: 1, q: 2},
		{name: "pool below ring", pool: 4, ring: 5, q: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewQComposite(tt.pool, tt.ring, tt.q); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	s, err := NewQComposite(100, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.PoolSize() != 100 || s.RingSize() != 10 || s.RequiredOverlap() != 2 {
		t.Errorf("accessors wrong: %d %d %d", s.PoolSize(), s.RingSize(), s.RequiredOverlap())
	}
	if s.Name() != "2-composite" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestEschenauerGligorIsQ1(t *testing.T) {
	s, err := NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.RequiredOverlap() != 1 {
		t.Errorf("EG overlap = %d, want 1", s.RequiredOverlap())
	}
	if s.Name() != "eschenauer-gligor" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestAssignProperties(t *testing.T) {
	s, err := NewQComposite(200, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	asg, err := s.Assign(r, 50)
	if err != nil {
		t.Fatal(err)
	}
	rings := asg.Rings
	if len(rings) != 50 {
		t.Fatalf("assigned %d rings", len(rings))
	}
	for v, ring := range rings {
		if ring.Len() != 25 {
			t.Fatalf("sensor %d ring size = %d", v, ring.Len())
		}
		for _, k := range ring.IDs() {
			if k < 0 || k >= 200 {
				t.Fatalf("sensor %d key %d outside pool", v, k)
			}
		}
	}
	if _, err := s.Assign(r, -1); err == nil {
		t.Error("negative n: want error")
	}
}

func TestAssignKeyMembershipUniform(t *testing.T) {
	// Each key appears in a ring with probability K/P.
	const (
		pool   = 50
		ring   = 10
		nRings = 20000
	)
	s, err := NewQComposite(pool, ring, 1)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := s.Assign(rng.New(2), nRings)
	if err != nil {
		t.Fatal(err)
	}
	rings := asg.Rings
	counts := make([]int, pool)
	for _, rg := range rings {
		for _, k := range rg.IDs() {
			counts[k]++
		}
	}
	want := float64(nRings) * ring / pool
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("key %d appeared %d times, want ~%v", k, c, want)
		}
	}
}

func TestDeriveLinkKeyProperties(t *testing.T) {
	a := DeriveLinkKey([]ID{3, 1, 2})
	b := DeriveLinkKey([]ID{1, 2, 3})
	if a != b {
		t.Error("link key must be order independent")
	}
	c := DeriveLinkKey([]ID{1, 2})
	if a == c {
		t.Error("different shared sets produced the same link key")
	}
	d := DeriveLinkKey([]ID{1, 2, 4})
	if a == d {
		t.Error("different shared sets produced the same link key")
	}
	// Input must not be mutated (sorted copy).
	in := []ID{9, 4}
	DeriveLinkKey(in)
	if in[0] != 9 {
		t.Error("DeriveLinkKey mutated its input")
	}
	// Empty input is well defined.
	e1, e2 := DeriveLinkKey(nil), DeriveLinkKey([]ID{})
	if e1 != e2 {
		t.Error("empty link keys differ")
	}
}

func TestQuickSharedCountMatchesSets(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		toIDs := func(raw []uint8) []ID {
			ids := make([]ID, len(raw))
			for i, v := range raw {
				ids[i] = ID(v % 64)
			}
			return ids
		}
		a := NewRing(toIDs(aRaw))
		b := NewRing(toIDs(bRaw))
		am := map[ID]bool{}
		for _, k := range a.IDs() {
			am[k] = true
		}
		want := 0
		for _, k := range b.IDs() {
			if am[k] {
				want++
			}
		}
		return a.SharedCount(b) == want && len(a.SharedWith(b)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSharedCount(b *testing.B) {
	r := rng.New(3)
	s, err := NewQComposite(10000, 80, 2)
	if err != nil {
		b.Fatal(err)
	}
	asg, err := s.Assign(r, 2)
	if err != nil {
		b.Fatal(err)
	}
	rings := asg.Rings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rings[0].SharedCount(rings[1])
	}
}
