package adversary

import (
	"testing"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

func TestCaptureTargetedPicksHighestDegrees(t *testing.T) {
	net := deployFor(t, 300, 25, 2, 41)
	res, err := CaptureTargeted(net, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Captured) != 10 {
		t.Fatalf("captured %d", len(res.Captured))
	}
	topo := net.FullSecureTopology()
	minCaptured := topo.N()
	capturedSet := map[int32]bool{}
	for _, id := range res.Captured {
		capturedSet[id] = true
		if d := topo.Degree(id); d < minCaptured {
			minCaptured = d
		}
	}
	// No uncaptured sensor may have strictly higher degree than the lowest
	// captured one.
	for v := int32(0); int(v) < topo.N(); v++ {
		if !capturedSet[v] && topo.Degree(v) > minCaptured {
			t.Fatalf("sensor %d (deg %d) outranks a captured sensor (deg %d)",
				v, topo.Degree(v), minCaptured)
		}
	}
}

// TestCaptureTargetedSkipsDeadSensors is the regression test for the ranking
// bug: degrees used to be ranked over the FULL secure topology, so the
// highest-degree sensor stayed at the top of the target list even after it
// failed — and the attack would capture the dead hub. Ranking must follow the
// alive-induced topology.
func TestCaptureTargetedSkipsDeadSensors(t *testing.T) {
	net := deployFor(t, 300, 25, 2, 44)
	// Find and fail the full-topology hub.
	topo := net.FullSecureTopology()
	hub := int32(0)
	for v := int32(1); int(v) < topo.N(); v++ {
		if topo.Degree(v) > topo.Degree(hub) {
			hub = v
		}
	}
	if err := net.FailNodes(hub); err != nil {
		t.Fatal(err)
	}
	res, err := CaptureTargeted(net, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Captured {
		if id == hub {
			t.Fatalf("captured the failed hub %d", hub)
		}
	}
	// The alive count, not the sensor count, bounds the capture budget.
	if _, err := CaptureTargeted(net, net.AliveCount()+1); err == nil {
		t.Error("capturing more than alive count: want error")
	}
	if _, err := CaptureTargeted(net, net.AliveCount()); err != nil {
		t.Errorf("capturing exactly the alive count: %v", err)
	}
}

func TestCaptureTargetedValidation(t *testing.T) {
	net := deployFor(t, 200, 20, 1, 42)
	if _, err := CaptureTargeted(net, -1); err == nil {
		t.Error("negative count: want error")
	}
	if _, err := CaptureTargeted(net, net.Sensors()+1); err == nil {
		t.Error("over-capture: want error")
	}
	res, err := CaptureTargeted(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompromisedLinks != 0 {
		t.Error("empty targeted capture compromised links")
	}
}

func TestCaptureTargetedDeterministic(t *testing.T) {
	net := deployFor(t, 300, 25, 2, 43)
	a, err := CaptureTargeted(net, 15)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureTargeted(net, 15)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompromisedLinks != b.CompromisedLinks || a.KeysLearned != b.KeysLearned {
		t.Error("targeted capture not deterministic")
	}
	for i := range a.Captured {
		if a.Captured[i] != b.Captured[i] {
			t.Fatal("targeted capture order not deterministic")
		}
	}
}

func TestTargetedVsRandomEavesdropIndistinguishable(t *testing.T) {
	// The q-composite property the targeted attack exposes: uniform rings
	// mean high degree carries no extra key material, so the compromised
	// fractions of the two strategies agree within Monte Carlo noise.
	const trials = 25
	var randSum, targSum float64
	for seed := uint64(0); seed < trials; seed++ {
		net := deployFor(t, 500, 30, 2, 200+seed)
		random, err := CaptureRandom(net, rng.NewStream(9, seed), 25)
		if err != nil {
			t.Fatal(err)
		}
		targeted, err := CaptureTargeted(net, 25)
		if err != nil {
			t.Fatal(err)
		}
		randSum += random.Fraction()
		targSum += targeted.Fraction()
	}
	randMean, targMean := randSum/trials, targSum/trials
	if diff := targMean - randMean; diff > 0.05 || diff < -0.05 {
		t.Errorf("eavesdrop fractions diverged: targeted %v vs random %v", targMean, randMean)
	}
}

func TestTargetedDestroysMoreTopology(t *testing.T) {
	// Where the targeted attack IS stronger: treating the captured sensors
	// as destroyed, the surviving topology keeps fewer secure links (and no
	// larger a giant component) than under random capture. Parameters put
	// the network in the connected regime (mean degree ≈ 8) where hub
	// removal matters.
	const (
		trials   = 20
		captured = 40
	)
	var randLinks, targLinks, randLargest, targLargest float64
	for seed := uint64(0); seed < trials; seed++ {
		// Random destruction.
		netR := deployFor(t, 10000, 46, 2, 300+seed)
		resR, err := CaptureRandom(netR, rng.NewStream(11, seed), captured)
		if err != nil {
			t.Fatal(err)
		}
		if err := netR.FailNodes(resR.Captured...); err != nil {
			t.Fatal(err)
		}
		repR, err := netR.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		randLinks += float64(repR.SecureLinks)
		randLargest += float64(repR.LargestComp)

		// Targeted destruction on an identically distributed network.
		netT := deployFor(t, 10000, 46, 2, 300+seed)
		resT, err := CaptureTargeted(netT, captured)
		if err != nil {
			t.Fatal(err)
		}
		if err := netT.FailNodes(resT.Captured...); err != nil {
			t.Fatal(err)
		}
		repT, err := netT.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		targLinks += float64(repT.SecureLinks)
		targLargest += float64(repT.LargestComp)
	}
	if targLinks >= randLinks {
		t.Errorf("targeted destruction kept more links (%v) than random (%v)",
			targLinks/trials, randLinks/trials)
	}
	if targLargest > randLargest {
		t.Errorf("targeted destruction left a larger component (%v) than random (%v)",
			targLargest/trials, randLargest/trials)
	}
}
