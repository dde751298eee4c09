package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestProportionEstimate(t *testing.T) {
	tests := []struct {
		name string
		p    Proportion
		want float64
	}{
		{name: "empty", p: Proportion{}, want: 0},
		{name: "half", p: Proportion{Successes: 50, Trials: 100}, want: 0.5},
		{name: "all", p: Proportion{Successes: 10, Trials: 10}, want: 1},
		{name: "none", p: Proportion{Successes: 0, Trials: 10}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Estimate(); got != tt.want {
				t.Errorf("Estimate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestWilsonInterval(t *testing.T) {
	p := Proportion{Successes: 50, Trials: 100}
	lo, hi := p.WilsonInterval(1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v, %v] must contain the estimate 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval [%v, %v] too wide for 100 trials", lo, hi)
	}
	// Boundary behaviour: all successes still yields hi ≤ 1 and lo < 1.
	p = Proportion{Successes: 100, Trials: 100}
	lo, hi = p.WilsonInterval(1.96)
	if hi > 1 || lo >= 1 || lo < 0.9 {
		t.Errorf("boundary interval [%v, %v] unreasonable", lo, hi)
	}
	// Zero trials: the vacuous interval.
	lo, hi = Proportion{}.WilsonInterval(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v], want [0, 1]", lo, hi)
	}
}

func TestWilsonNarrowsWithTrials(t *testing.T) {
	small := Proportion{Successes: 5, Trials: 10}
	large := Proportion{Successes: 500, Trials: 1000}
	slo, shi := small.WilsonInterval(1.96)
	llo, lhi := large.WilsonInterval(1.96)
	if lhi-llo >= shi-slo {
		t.Errorf("1000-trial interval (%v) not narrower than 10-trial (%v)", lhi-llo, shi-slo)
	}
}

func TestProportionString(t *testing.T) {
	s := Proportion{Successes: 1, Trials: 2}.String()
	if !strings.Contains(s, "0.5") || !strings.Contains(s, "(1/2)") {
		t.Errorf("String() = %q", s)
	}
}

func TestSummaryMoments(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Error("zero-value Summary must report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.StdErr()-s.StdDev()/math.Sqrt(8)) > 1e-12 {
		t.Errorf("StdErr inconsistent")
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Errorf("single-observation summary wrong: %+v", s)
	}
}

func TestPoissonPMF(t *testing.T) {
	// Poisson(2): P[0] = e^-2, P[1] = 2e^-2, P[2] = 2e^-2.
	e2 := math.Exp(-2)
	tests := []struct {
		k    int
		want float64
	}{
		{k: 0, want: e2},
		{k: 1, want: 2 * e2},
		{k: 2, want: 2 * e2},
		{k: 3, want: 4.0 / 3 * e2},
		{k: -1, want: 0},
	}
	for _, tt := range tests {
		if got := PoissonPMF(2, tt.k); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("PMF(2, %d) = %v, want %v", tt.k, got, tt.want)
		}
	}
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PMF(0,0) = %v, want 1", got)
	}
	if got := PoissonPMF(0, 3); got != 0 {
		t.Errorf("PMF(0,3) = %v, want 0", got)
	}
	if got := PoissonPMF(-1, 0); got != 0 {
		t.Errorf("PMF(-1,0) = %v, want 0", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 7.3, 50} {
		sum := 0.0
		for k := 0; k < 400; k++ {
			sum += PoissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Poisson(%v) pmf sums to %v", lambda, sum)
		}
	}
}

func TestTotalVariation(t *testing.T) {
	tests := []struct {
		name string
		p, q []float64
		want float64
	}{
		{name: "identical", p: []float64{0.5, 0.5}, q: []float64{0.5, 0.5}, want: 0},
		{name: "disjoint", p: []float64{1, 0}, q: []float64{0, 1}, want: 1},
		{name: "half", p: []float64{1, 0}, q: []float64{0.5, 0.5}, want: 0.5},
		{name: "length mismatch", p: []float64{1}, q: []float64{0.5, 0.5}, want: 0.5},
		{name: "both empty", p: nil, q: nil, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TotalVariation(tt.p, tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("TV = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestQuickTotalVariationSymmetricBounded(t *testing.T) {
	f := func(a, b [8]uint8) bool {
		p := make([]float64, 8)
		q := make([]float64, 8)
		var ps, qs float64
		for i := 0; i < 8; i++ {
			p[i] = float64(a[i])
			q[i] = float64(b[i])
			ps += p[i]
			qs += q[i]
		}
		if ps == 0 || qs == 0 {
			return true
		}
		for i := range p {
			p[i] /= ps
			q[i] /= qs
		}
		tv := TotalVariation(p, q)
		return tv >= 0 && tv <= 1+1e-12 && math.Abs(tv-TotalVariation(q, p)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChiSquare(t *testing.T) {
	stat, cells := ChiSquare([]float64{10, 20, 30}, []float64{10, 20, 30})
	if stat != 0 || cells != 3 {
		t.Errorf("identical: stat=%v cells=%d", stat, cells)
	}
	stat, _ = ChiSquare([]float64{12, 18}, []float64{10, 20})
	want := 4.0/10 + 4.0/20
	if math.Abs(stat-want) > 1e-12 {
		t.Errorf("stat = %v, want %v", stat, want)
	}
	stat, _ = ChiSquare([]float64{1}, []float64{0})
	if !math.IsInf(stat, 1) {
		t.Errorf("obs>0 with exp=0 should be +Inf, got %v", stat)
	}
	stat, cells = ChiSquare([]float64{0, 5}, []float64{0, 5})
	if stat != 0 || cells != 1 {
		t.Errorf("zero-exp zero-obs cell should be skipped: stat=%v cells=%d", stat, cells)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 1, 2, 2, 2, 5} {
		h.Add(v)
	}
	h.Add(-3) // clamps to 0
	want := []int{2, 2, 3, 0, 0, 1}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("Counts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", got, want)
		}
	}
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	norm := h.Normalized()
	if math.Abs(norm[2]-3.0/8) > 1e-12 {
		t.Errorf("Normalized[2] = %v", norm[2])
	}
	if math.Abs(h.Mean()-(0*2+1*2+2*3+5*1)/8.0) > 1e-12 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Median() != 1 {
		t.Errorf("Median = %d, want 1", h.Median())
	}
	if h.Quantile(1) != 5 {
		t.Errorf("Quantile(1) = %d, want 5", h.Quantile(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Total() != 0 || h.Mean() != 0 || h.Median() != 0 {
		t.Error("empty histogram should report zeros")
	}
	if len(h.Normalized()) != 0 {
		t.Error("empty histogram Normalized should be empty")
	}
}

// TestSummaryJSONRoundTrip pins the checkpoint-journal contract: a Summary
// restored from its JSON form must report bit-identical statistics — the
// full accumulator state survives, including awkward float64 values that a
// lossy encoding would perturb.
func TestSummaryJSONRoundTrip(t *testing.T) {
	awkward := []float64{
		0.1, 1.0 / 3.0, math.Pi, 1e-300, 1e300, -7.25,
		math.Nextafter(1, 2), // 1 + ulp: dies under short float formatting
	}
	var s Summary
	for _, x := range awkward {
		s.Add(x)
	}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip changed the accumulator: %+v vs %+v", back, s)
	}
	// The zero Summary round-trips too (a point with no observations).
	var zero, zeroBack Summary
	data, err = json.Marshal(&zero)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &zeroBack); err != nil {
		t.Fatal(err)
	}
	if zeroBack != zero {
		t.Errorf("zero Summary round trip: %+v vs %+v", zeroBack, zero)
	}
	// A negative count is rejected, not silently restored.
	if err := json.Unmarshal([]byte(`{"n":-1}`), &back); err == nil {
		t.Error("negative observation count accepted")
	}
}

// TestSummaryJSONRoundTripQuick fuzzes the exactness claim over random
// accumulator states.
func TestSummaryJSONRoundTripQuick(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		for _, x := range xs {
			s.Add(x)
		}
		data, err := json.Marshal(&s)
		if err != nil {
			return false
		}
		var back Summary
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		// Extreme inputs can drive the accumulator non-finite (overflowed
		// m2, NaN mean), and NaN != NaN — compare the canonical encoding
		// instead of the struct, which is equality up to NaN payload bits.
		data2, err := json.Marshal(&back)
		if err != nil {
			return false
		}
		return bytes.Equal(data, data2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
