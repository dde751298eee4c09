package wsn

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/montecarlo"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// graphsEqual reports exact topology equality.
func graphsEqual(a, b *graph.Undirected) bool {
	return a.N() == b.N() && a.M() == b.M() &&
		a.IsSpanningSubgraphOf(b) && b.IsSpanningSubgraphOf(a)
}

// requireSameNetwork asserts byte-identical secure topology, channel
// degrees, shared keys and link keys between two deployments.
func requireSameNetwork(t *testing.T, want, got *Network) {
	t.Helper()
	if !graphsEqual(want.FullSecureTopology(), got.FullSecureTopology()) {
		t.Fatal("secure topologies differ")
	}
	if !slices.Equal(want.chanDeg, got.chanDeg) {
		t.Fatal("channel degrees differ")
	}
	wantLinks, gotLinks := want.Links(), got.Links()
	if len(wantLinks) != len(gotLinks) {
		t.Fatalf("%d links, want %d", len(gotLinks), len(wantLinks))
	}
	for i := range wantLinks {
		w, g := wantLinks[i], gotLinks[i]
		if w.A != g.A || w.B != g.B {
			t.Fatalf("link %d endpoints (%d,%d), want (%d,%d)", i, g.A, g.B, w.A, w.B)
		}
		if w.Key != g.Key {
			t.Fatalf("link (%d,%d) keys differ", w.A, w.B)
		}
		if len(w.SharedKeys) != len(g.SharedKeys) {
			t.Fatalf("link (%d,%d) shared %v, want %v", w.A, w.B, g.SharedKeys, w.SharedKeys)
		}
		for j := range w.SharedKeys {
			if w.SharedKeys[j] != g.SharedKeys[j] {
				t.Fatalf("link (%d,%d) shared %v, want %v", w.A, w.B, g.SharedKeys, w.SharedKeys)
			}
		}
	}
}

// deployerConfigs covers both shared-key strategies and all channel
// models: dense channels take the row index, near-empty ones the batched
// Intersector (TestDiscoveryStrategySelection pins which case takes which).
// onoff-q3 and onoff-p1 share the Figure 1 regime scaled down, at p = 0.5
// and at p = 1. onoff-ladder is the streaming ladder's rung scaled down to
// n = 1000: the dense Intersector, tested in batches
// (TestLadderBatchBoundaries pins where its streams stop relative to them).
func deployerConfigs(t *testing.T) map[string]Config {
	const ladderSensors = 1000
	t.Helper()
	scheme, err := keys.NewQComposite(500, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 1 regime scaled down: sparse rings (P > 128·K) and q = 3.
	q3Scheme, err := keys.NewQComposite(3000, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	ladderScheme, err := keys.NewQComposite(512, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	sparseScheme, err := keys.NewQComposite(8000, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	heteroScheme, err := keys.NewHeterogeneous(500, 1, []keys.Class{
		{Mu: 0.5, RingSize: 15}, {Mu: 0.3, RingSize: 30}, {Mu: 0.2, RingSize: 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"onoff-dense": {Sensors: 120, Scheme: scheme, Channel: channel.OnOff{P: 0.8}},
		"onoff-q3":    {Sensors: 200, Scheme: q3Scheme, Channel: channel.OnOff{P: 0.5}},
		"onoff-p1":    {Sensors: 200, Scheme: q3Scheme, Channel: channel.OnOff{P: 1}},
		"onoff-ladder": {Sensors: ladderSensors, Scheme: ladderScheme,
			Channel: channel.OnOff{P: 8 * math.Log(ladderSensors) / (0.594 * ladderSensors)}},
		"onoff-sparse":  {Sensors: 120, Scheme: sparseScheme, Channel: channel.OnOff{P: 0.01}},
		"always-on":     {Sensors: 80, Scheme: scheme, Channel: channel.AlwaysOn{}},
		"disk-torus":    {Sensors: 100, Scheme: scheme, Channel: channel.Disk{Radius: 0.3, Torus: true}},
		"disk-zero":     {Sensors: 50, Scheme: scheme, Channel: channel.Disk{}},
		"onoff-all-off": {Sensors: 50, Scheme: scheme, Channel: channel.OnOff{}},
		"hetero-onoff":  {Sensors: 120, Scheme: heteroScheme, Channel: channel.OnOff{P: 0.6}},
		"hetero-heterchannel": {Sensors: 120, Scheme: heteroScheme, Channel: channel.HeterOnOff{P: [][]float64{
			{0.9, 0.5, 0.2},
			{0.5, 0.6, 0.4},
			{0.2, 0.4, 0.8},
		}}},
	}
}

// referenceDraw replays cfg's deployment at seed without a Deployer:
// assign rings with the scheme, then draw the channel on the same
// generator.
func referenceDraw(t *testing.T, cfg Config, seed uint64) (keys.Assignment, *graph.Undirected) {
	t.Helper()
	r := rng.New(seed)
	asg, err := cfg.Scheme.Assign(r, cfg.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	return asg, emittedGraph(t, cfg, r, asg.Labels)
}

// bruteForceSecure is the reference secure topology of cfg at seed: every
// pair of the reference channel draw whose rings share at least q keys.
func bruteForceSecure(t *testing.T, cfg Config, seed uint64) *graph.Undirected {
	t.Helper()
	asg, channels := referenceDraw(t, cfg, seed)
	q := cfg.Scheme.RequiredOverlap()
	var edges []graph.Edge
	channels.ForEachEdge(func(u, v int32) bool {
		if asg.Rings[u].SharedCount(asg.Rings[v]) >= q {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		return true
	})
	g, err := graph.NewFromEdges(cfg.Sensors, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeployerMatchesDeploy is the central equivalence test of the lazy
// pipeline: for every configuration and seed, Deployer.Deploy must produce
// exactly the network the one-shot Deploy does — same secure topology, same
// shared keys, same derived link keys — and that topology must be the
// brute-force one: every emitted channel pair tested with Ring.SharedCount.
// The channel degrees the deployment counted must be the emitted graph's.
func TestDeployerMatchesDeploy(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				cfg.Seed = seed
				want, err := Deploy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Deploy(seed)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNetwork(t, want, got)
				if !graphsEqual(bruteForceSecure(t, cfg, seed), got.FullSecureTopology()) {
					t.Fatalf("seed %d: secure topology differs from the brute-force reference", seed)
				}
				_, channels := referenceDraw(t, cfg, seed)
				for v, deg := range got.chanDeg {
					if int(deg) != channels.Degree(int32(v)) {
						t.Fatalf("seed %d: sensor %d channel degree %d, want %d", seed, v, deg, channels.Degree(int32(v)))
					}
				}
			}
		})
	}
}

// TestDeployerReuseIsDeterministic pins the amortization contract: reusing
// one Deployer across different seeds must not leak state between
// deployments — redeploying an earlier seed reproduces its network exactly.
func TestDeployerReuseIsDeterministic(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			// Snapshot before the buffers are recycled.
			firstTopo := first.FullSecureTopology()
			firstLinks := first.Links()
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			again, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			if !graphsEqual(firstTopo, again.FullSecureTopology()) {
				t.Fatal("redeploying seed 1 changed the topology")
			}
			againLinks := again.Links()
			if len(firstLinks) != len(againLinks) {
				t.Fatalf("%d links, want %d", len(againLinks), len(firstLinks))
			}
			for i := range firstLinks {
				if firstLinks[i].Key != againLinks[i].Key {
					t.Fatalf("link %d key changed across reuse", i)
				}
			}
		})
	}
}

// TestLazyLinkKeysMatchDerivation checks that lazily materialized keys are
// the canonical derivation of the (surviving) shared set, before and after
// revocation invalidates the table.
func TestLazyLinkKeysMatchDerivation(t *testing.T) {
	scheme, err := keys.NewQComposite(300, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Deploy(Config{Sensors: 80, Scheme: scheme, Channel: channel.OnOff{P: 0.9}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		links := net.Links()
		if len(links) == 0 {
			t.Fatal("test network has no links")
		}
		for _, l := range links {
			ra, err := net.Ring(l.A)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := net.Ring(l.B)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]keys.ID, 0, len(l.SharedKeys))
			for _, k := range ra.SharedWith(rb) {
				if net.RevokedKeyCount() == 0 || !revokedContains(net, k) {
					want = append(want, k)
				}
			}
			if len(want) != len(l.SharedKeys) {
				t.Fatalf("link (%d,%d) shared %v, want %v", l.A, l.B, l.SharedKeys, want)
			}
			if l.Key != keys.DeriveLinkKey(want) {
				t.Fatalf("link (%d,%d) key is not DeriveLinkKey(shared)", l.A, l.B)
			}
		}
	}
	check()
	if _, err := net.RevokeNodeKeys(0, 1); err != nil {
		t.Fatal(err)
	}
	check()
}

func revokedContains(n *Network, k keys.ID) bool {
	return n.revoked != nil && n.revoked.Contains(int(k))
}

// TestDeployerPoolConcurrent drives a DeployerPool through the Monte Carlo
// engine under full parallelism; with -race this is the concurrency check,
// and the proportion must be reproducible across runs.
func TestDeployerPoolConcurrent(t *testing.T) {
	scheme, err := keys.NewQComposite(500, 36, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewDeployerPool(Config{Sensors: 100, Scheme: scheme, Channel: channel.OnOff{P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		est, err := montecarlo.EstimateProportion(context.Background(), montecarlo.Config{
			Trials: 40,
			Seed:   3,
		}, func(trial int, r *rng.Rand) (bool, error) {
			d := pool.Get()
			defer pool.Put(d)
			net, err := d.DeployRand(r)
			if err != nil {
				return false, err
			}
			return net.IsConnected()
		})
		if err != nil {
			t.Fatal(err)
		}
		return est.Estimate()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("pooled estimate not reproducible: %v vs %v", a, b)
	}
}

// TestSparseIndexDiscoveryMatchesEdges pins the row-indexed shared-key test
// against per-pair ring intersection on a CSR deployment past two thousand
// sensors: both strategies must produce the exact secure topology, including
// across Deployer reuse (the per-key counts and row counters must come back
// clean).
func TestSparseIndexDiscoveryMatchesEdges(t *testing.T) {
	const n = 2548
	scheme, err := keys.NewQComposite(3000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	onoff := channel.OnOff{P: 0.3}
	edgeD, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: opaqueOnOff{onoff}})
	if err != nil {
		t.Fatal(err)
	}
	indexD, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: onoff})
	if err != nil {
		t.Fatal(err)
	}
	for pass, seed := range []uint64{7, 8, 7} {
		wantNet, err := edgeD.Deploy(seed)
		if err != nil {
			t.Fatal(err)
		}
		if edgeD.rowIndex {
			t.Fatal("opaque channel took the row index")
		}
		want := wantNet.FullSecureTopology()
		if want.M() == 0 {
			t.Fatal("test topology has no secure links")
		}
		gotNet, err := indexD.Deploy(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !indexD.rowIndex {
			t.Fatal("OnOff deployment did not take the row index")
		}
		if got := gotNet.FullSecureTopology(); !graphsEqual(want, got) {
			t.Fatalf("pass %d: row-index topology differs from per-pair intersection (%d vs %d links)",
				pass, got.M(), want.M())
		}
	}
}

// TestOneClassHeterogeneousDeploymentMatchesQComposite is the deployment
// half of the 1-class equivalence contract (the scheme half lives in
// internal/keys): a single-class Heterogeneous scheme must yield deployments
// byte-identical to the equivalent QComposite — same channel topology, same
// secure topology, same shared keys and derived link keys — both under the
// uniform OnOff channel and under the 1-class HeterOnOff written in class
// form, which must consume the randomness stream exactly as OnOff does.
func TestOneClassHeterogeneousDeploymentMatchesQComposite(t *testing.T) {
	const (
		n    = 150
		pool = 400
		ring = 30
		q    = 2
		p    = 0.6
	)
	qs, err := keys.NewQComposite(pool, ring, q)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := keys.NewHeterogeneous(pool, q, []keys.Class{{Mu: 1, RingSize: ring}})
	if err != nil {
		t.Fatal(err)
	}
	channels := map[string]channel.Model{
		"onoff":        channel.OnOff{P: p},
		"heter-on-off": channel.UniformHeterOnOff(1, p),
	}
	for name, ch := range channels {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(Config{Sensors: n, Scheme: hs, Channel: ch})
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				want, err := Deploy(Config{Sensors: n, Scheme: qs, Channel: channel.OnOff{P: p}, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got, err := d.Deploy(seed)
				if err != nil {
					t.Fatal(err)
				}
				requireSameNetwork(t, want, got)
				if c, err := got.ClassOf(0); err != nil || c != 0 {
					t.Fatalf("ClassOf(0) = %d, %v; want class 0", c, err)
				}
			}
		})
	}
}

// TestNewDeployerValidatesEagerly covers construction-time validation,
// including the channel model's Validate.
func TestNewDeployerValidatesEagerly(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Sensors: -1, Scheme: scheme, Channel: channel.AlwaysOn{}},
		{Sensors: 10, Channel: channel.AlwaysOn{}},
		{Sensors: 10, Scheme: scheme},
		{Sensors: 10, Scheme: scheme, Channel: channel.OnOff{P: -0.5}},
		{Sensors: 10, Scheme: scheme, Channel: channel.Disk{Radius: -2}},
		// Class-aware channel whose class count disagrees with the scheme's.
		{Sensors: 10, Scheme: scheme, Channel: channel.UniformHeterOnOff(2, 0.5)},
	}
	for i, cfg := range bad {
		if _, err := NewDeployer(cfg); err == nil {
			t.Errorf("config %d: want error", i)
		}
		if _, err := NewDeployerPool(cfg); err == nil {
			t.Errorf("config %d: pool: want error", i)
		}
	}
}

// TestDiscoveryStrategySelection asserts that the test configurations above
// genuinely exercise both shared-key strategies, and that the row index
// runs key-first on exactly the all-on channels.
func TestDiscoveryStrategySelection(t *testing.T) {
	cfgs := deployerConfigs(t)
	wantRow := map[string]bool{
		"onoff-dense":         true,
		"onoff-q3":            true,
		"onoff-p1":            true,
		"always-on":           true,
		"hetero-onoff":        true,
		"disk-torus":          true,
		"hetero-heterchannel": true,
		"onoff-sparse":        false, // ~70 channel pairs: per-pair intersection wins
		"onoff-ladder":        false, // ~2·10⁶ index increments vs ~4.7·10⁴ 32-key ring intersections
		"onoff-all-off":       false, // no channel pairs
		"disk-zero":           false,
	}
	wantKeyFirst := map[string]bool{"onoff-p1": true, "always-on": true}
	if len(wantRow) != len(cfgs) {
		t.Fatalf("%d strategy expectations for %d configs", len(wantRow), len(cfgs))
	}
	for name, want := range wantRow {
		d, err := NewDeployer(cfgs[name])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DeployConnectivity(1); err != nil {
			t.Fatal(err)
		}
		if d.rowIndex != want || d.keyFirst != wantKeyFirst[name] {
			t.Errorf("%s: streaming row index = %v, key-first = %v; want %v, %v",
				name, d.rowIndex, d.keyFirst, want, wantKeyFirst[name])
		}
		if _, err := d.Deploy(1); err != nil {
			t.Fatal(err)
		}
		if d.rowIndex != want || d.keyFirst != wantKeyFirst[name] {
			t.Errorf("%s: Deploy row index = %v, key-first = %v; want %v, %v",
				name, d.rowIndex, d.keyFirst, want, wantKeyFirst[name])
		}
	}
	d, err := NewDeployer(cfgs["onoff-ladder"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeployConnectivity(1); err != nil {
		t.Fatal(err)
	}
	if !d.ix.Dense() {
		t.Error("onoff-ladder: streaming Intersector is not dense")
	}
}
