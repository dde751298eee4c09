package channel

import (
	"math"
	"strings"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestOnOffSample(t *testing.T) {
	m := OnOff{P: 0.3}
	g := drawn(t, m, rng.New(1), 100)
	if g.N() != 100 {
		t.Errorf("N = %d", g.N())
	}
	want := 0.3 * 100 * 99 / 2
	if math.Abs(float64(g.M())-want) > 4*math.Sqrt(want) {
		t.Errorf("M = %d, want ~%v", g.M(), want)
	}
	if !strings.Contains(m.Name(), "0.3") {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestOnOffValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.5, math.NaN()} {
		if err := (OnOff{P: p}).Validate(); err == nil {
			t.Errorf("p=%v: Validate: want error", p)
		}
		if err := (OnOff{P: p}).EmitEdges(rng.New(1), 10, acceptAll); err == nil {
			t.Errorf("p=%v: EmitEdges: want error", p)
		}
	}
	// p = 0 is the degenerate all-off network: valid, empty channel graph.
	g := drawn(t, OnOff{P: 0}, rng.New(1), 10)
	if g.N() != 10 || g.M() != 0 {
		t.Errorf("p=0 graph: N=%d M=%d, want N=10 M=0", g.N(), g.M())
	}
	// p = 1 is the full-visibility special case of on/off and is valid.
	g = drawn(t, OnOff{P: 1}, rng.New(1), 10)
	if g.M() != 45 {
		t.Errorf("p=1 edges = %d, want 45", g.M())
	}
}

func TestDiskValidation(t *testing.T) {
	for _, r := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		if err := (Disk{Radius: r}).Validate(); err == nil {
			t.Errorf("radius=%v: Validate: want error", r)
		}
		if err := (Disk{Radius: r}).EmitEdges(rng.New(1), 10, acceptAll); err == nil {
			t.Errorf("radius=%v: EmitEdges: want error", r)
		}
	}
	for _, m := range []Model{OnOff{P: 0.5}, AlwaysOn{}, Disk{Radius: 0.2}} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", m.Name(), err)
		}
	}
}

// TestDiskZeroRadius pins the degenerate-radius contract: a zero radius is a
// valid empty channel graph, and its EquivalentOnOff (P = 0) samples an
// equally valid empty graph instead of failing when drawn.
func TestDiskZeroRadius(t *testing.T) {
	m := Disk{Radius: 0, Torus: true}
	if err := m.Validate(); err != nil {
		t.Fatalf("zero radius Validate: %v", err)
	}
	g := drawn(t, m, rng.New(4), 40)
	if g.N() != 40 || g.M() != 0 {
		t.Errorf("zero-radius graph: N=%d M=%d, want N=40 M=0", g.N(), g.M())
	}
	eq := m.EquivalentOnOff()
	if eq.P != 0 {
		t.Fatalf("EquivalentOnOff P = %v, want 0", eq.P)
	}
	if err := eq.Validate(); err != nil {
		t.Fatalf("EquivalentOnOff Validate: %v", err)
	}
	g = drawn(t, eq, rng.New(4), 40)
	if g.N() != 40 || g.M() != 0 {
		t.Errorf("equivalent on/off graph: N=%d M=%d, want N=40 M=0", g.N(), g.M())
	}
}

func TestAlwaysOn(t *testing.T) {
	m := AlwaysOn{}
	g := drawn(t, m, rng.New(1), 30)
	if g.M() != 30*29/2 {
		t.Errorf("M = %d, want %d", g.M(), 30*29/2)
	}
	if m.Name() != "always-on" {
		t.Errorf("Name = %q", m.Name())
	}
}

func TestDiskSample(t *testing.T) {
	m := Disk{Radius: 0.2, Torus: true}
	g := drawn(t, m, rng.New(2), 200)
	// Torus pair probability is exactly π r².
	want := math.Pi * 0.04 * 200 * 199 / 2
	if math.Abs(float64(g.M())-want) > 6*math.Sqrt(want)+0.05*want {
		t.Errorf("M = %d, want ~%v", g.M(), want)
	}
	if !strings.Contains(m.Name(), "torus") {
		t.Errorf("Name = %q", m.Name())
	}
	if strings.Contains((Disk{Radius: 0.1}).Name(), "torus") {
		t.Error("non-torus Name mentions torus")
	}
	if err := (Disk{Radius: -1}).EmitEdges(rng.New(1), 10, acceptAll); err == nil {
		t.Error("negative radius: want error")
	}
}

func TestEquivalentOnOff(t *testing.T) {
	m := Disk{Radius: 0.2, Torus: true}
	eq := m.EquivalentOnOff()
	if math.Abs(eq.P-math.Pi*0.04) > 1e-12 {
		t.Errorf("equivalent p = %v, want π·0.04", eq.P)
	}
	// Clamped for huge radii.
	if got := (Disk{Radius: 10}).EquivalentOnOff().P; got != 1 {
		t.Errorf("clamped p = %v, want 1", got)
	}
}
