package wsn

import (
	"math"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// connStatsOf computes a deployment's ConnStats the batch way: deploy the
// full network and measure the CSR secure topology.
func connStatsOf(t *testing.T, net *Network) ConnStats {
	t.Helper()
	topo := net.FullSecureTopology()
	connected, err := net.IsConnected()
	if err != nil {
		t.Fatal(err)
	}
	_, comps := graphalgo.Components(topo)
	isolated := 0
	if hist := topo.DegreeHistogram(); len(hist) > 0 {
		isolated = hist[0]
	}
	return ConnStats{
		Connected:  connected,
		Components: comps,
		Giant:      graphalgo.LargestComponentSize(topo),
		Isolated:   isolated,
	}
}

// TestDeployConnectivityMatchesCSR is the central equivalence test of the
// streaming pipeline: for every channel model, both shared-key strategies
// and several seeds, the connectivity-only mode must report exactly the
// statistics a full CSR deployment measures.
func TestDeployConnectivityMatchesCSR(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name+"/streaming", func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				refCfg := cfg
				refCfg.Seed = seed
				net, err := Deploy(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				want := connStatsOf(t, net)
				got, err := d.DeployConnectivity(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d: ConnStats %+v, want %+v", seed, got, want)
				}
			}
		})
	}
}

// TestDeployConnectivityReuse pins reuse semantics on one Deployer: mixing
// connectivity-only and full deployments across seeds must leak no state in
// either direction.
func TestDeployConnectivityReuse(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			// Interleave a full deployment and a different seed, then replay.
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployConnectivity(3); err != nil {
				t.Fatal(err)
			}
			again, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("replaying seed 1: %+v, want %+v", again, first)
			}
			// The interleaved full deployment must also stay untouched.
			net, err := d.Deploy(1)
			if err != nil {
				t.Fatal(err)
			}
			if got := connStatsOf(t, net); got != first {
				t.Fatalf("full deployment after streaming: %+v, want %+v", got, first)
			}
		})
	}
}

// degreeStatsOf computes a deployment's DegreeStats the batch way: deploy
// the full network and measure the CSR secure topology, truncating the
// min degree at k exactly as the streaming mode reports it.
func degreeStatsOf(t *testing.T, net *Network, k int) DegreeStats {
	t.Helper()
	topo := net.FullSecureTopology()
	minDeg := topo.MinDegree()
	belowK := 0
	for _, count := range topo.DegreeHistogram()[:min(k, len(topo.DegreeHistogram()))] {
		belowK += count
	}
	truncated := minDeg
	if truncated > k {
		truncated = k
	}
	return DegreeStats{
		ConnStats:         connStatsOf(t, net),
		K:                 k,
		MinDegreeAtLeastK: minDeg >= k || topo.N() == 0,
		MinDegree:         truncated,
		BelowK:            belowK,
	}
}

// TestDeployDegreeStatsMatchesCSR is the degree-mode analogue of the
// connectivity equivalence test: for every channel model, several seeds and
// several degree levels, the streaming degree mode must report exactly what
// a full CSR deployment measures — connectivity statistics, the min-degree
// ≥ k verdict, the truncated min degree and the below-k count.
func TestDeployDegreeStatsMatchesCSR(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name+"/streaming", func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(0); seed < 4; seed++ {
				refCfg := cfg
				refCfg.Seed = seed
				net, err := Deploy(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{0, 1, 2, 4} {
					want := degreeStatsOf(t, net, k)
					got, err := d.DeployDegreeStats(seed, k)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("seed %d k=%d: DegreeStats %+v, want %+v", seed, k, got, want)
					}
				}
			}
		})
	}
}

// TestDeployDegreeStatsReuse pins reuse on one Deployer across modes and
// degree levels: interleaving degree, connectivity and full deployments
// must leak no state, and replays must be bit-identical.
func TestDeployDegreeStatsReuse(t *testing.T) {
	for name, cfg := range deployerConfigs(t) {
		t.Run(name, func(t *testing.T) {
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := d.DeployDegreeStats(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Deploy(2); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployConnectivity(3); err != nil {
				t.Fatal(err)
			}
			if _, err := d.DeployDegreeStats(4, 5); err != nil {
				t.Fatal(err)
			}
			again, err := d.DeployDegreeStats(1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("replaying seed 1 k=2: %+v, want %+v", again, first)
			}
			// The connectivity halves of both modes must agree at one seed.
			conn, err := d.DeployConnectivity(1)
			if err != nil {
				t.Fatal(err)
			}
			if conn != first.ConnStats {
				t.Fatalf("connectivity mode at seed 1: %+v, want %+v", conn, first.ConnStats)
			}
		})
	}
}

// TestDeployDegreeStatsTinyNetworks pins the degenerate-size conventions of
// the degree mode: n = 0 is vacuously ≥ k with min degree 0 (matching
// graph.MinDegree's empty-graph convention); a singleton has degree 0.
func TestDeployDegreeStatsTinyNetworks(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]DegreeStats{
		0: {ConnStats: ConnStats{Connected: true}, K: 2, MinDegreeAtLeastK: true, MinDegree: 0, BelowK: 0},
		1: {ConnStats: ConnStats{Connected: true, Components: 1, Giant: 1, Isolated: 1},
			K: 2, MinDegreeAtLeastK: false, MinDegree: 0, BelowK: 1},
	} {
		d, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DeployDegreeStats(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: %+v, want %+v", n, got, want)
		}
	}
	// Negative k is rejected.
	d, err := NewDeployer(Config{Sensors: 10, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeployDegreeStats(1, -1); err == nil {
		t.Error("negative degree level: want error")
	}
}

// TestDeployConnectivityTinyNetworks pins the conventions at degenerate
// sizes: n = 0 and n = 1 count as connected (the Report convention), with
// the singleton isolated.
func TestDeployConnectivityTinyNetworks(t *testing.T) {
	scheme, err := keys.NewQComposite(100, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int]ConnStats{
		0: {Connected: true, Components: 0, Giant: 0, Isolated: 0},
		1: {Connected: true, Components: 1, Giant: 1, Isolated: 1},
	} {
		d, err := NewDeployer(Config{Sensors: n, Scheme: scheme, Channel: channel.OnOff{P: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DeployConnectivity(1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("n=%d: %+v, want %+v", n, got, want)
		}
	}
}

// opaqueOnOff is OnOff under another type: every draw is the same, but
// useRowIndex no longer recognizes the model, so every mode takes the
// Intersector.
type opaqueOnOff struct{ channel.OnOff }

// TestStreamingStrategiesShareOneDeployer alternates CSR deployments and
// both shared-key strategies on one Deployer — at a small size and at one
// past two thousand sensors — and checks every answer against a fresh CSR
// deployment. After each step the row counter must be all-zero (the early
// exit stops mid-row).
func TestStreamingStrategiesShareOneDeployer(t *testing.T) {
	for _, c := range []struct {
		name          string
		n, pool, ring int
		q             int
		p             float64
	}{
		{name: "small", n: 120, pool: 500, ring: 40, q: 2, p: 0.8},
		{name: "large", n: 2148, pool: 3000, ring: 8, q: 1, p: 0.3},
	} {
		t.Run(c.name, func(t *testing.T) {
			scheme, err := keys.NewQComposite(c.pool, c.ring, c.q)
			if err != nil {
				t.Fatal(err)
			}
			onoff := channel.OnOff{P: c.p}
			cfg := Config{Sensors: c.n, Scheme: scheme, Channel: onoff}
			d, err := NewDeployer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := func(seed uint64) *Network {
				refCfg := cfg
				refCfg.Seed = seed
				net, err := Deploy(refCfg)
				if err != nil {
					t.Fatal(err)
				}
				return net
			}
			clean := func(step string) {
				t.Helper()
				for w, cnt := range d.rowCnt {
					if cnt != 0 {
						t.Fatalf("%s: rowCnt[%d] = %d left over", step, w, cnt)
					}
				}
				if len(d.rowTouched) != 0 {
					t.Fatalf("%s: %d rowTouched entries left over", step, len(d.rowTouched))
				}
			}
			deploy := func(seed uint64) {
				t.Helper()
				net, err := d.Deploy(seed)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := connStatsOf(t, net), connStatsOf(t, ref(seed)); got != want {
					t.Fatalf("Deploy(%d): %+v, want %+v", seed, got, want)
				}
				clean("Deploy")
			}
			connectivity := func(seed uint64, ch channel.Model, wantRow bool) {
				t.Helper()
				d.cfg.Channel = ch
				got, err := d.DeployConnectivity(seed)
				if err != nil {
					t.Fatal(err)
				}
				if d.rowIndex != wantRow {
					t.Fatalf("DeployConnectivity(%d): row index %v, want %v", seed, d.rowIndex, wantRow)
				}
				if want := connStatsOf(t, ref(seed)); got != want {
					t.Fatalf("DeployConnectivity(%d): %+v, want %+v", seed, got, want)
				}
				clean("DeployConnectivity")
			}
			degrees := func(seed uint64, ch channel.Model, wantRow bool) {
				t.Helper()
				d.cfg.Channel = ch
				got, err := d.DeployDegreeStats(seed, 2)
				if err != nil {
					t.Fatal(err)
				}
				if d.rowIndex != wantRow {
					t.Fatalf("DeployDegreeStats(%d): row index %v, want %v", seed, d.rowIndex, wantRow)
				}
				if want := degreeStatsOf(t, ref(seed), 2); got != want {
					t.Fatalf("DeployDegreeStats(%d): %+v, want %+v", seed, got, want)
				}
				clean("DeployDegreeStats")
			}
			opaque := opaqueOnOff{onoff}
			deploy(1)
			connectivity(2, onoff, true)
			connectivity(3, opaque, false)
			degrees(4, opaque, false)
			degrees(5, onoff, true)
			d.cfg.Channel = onoff
			deploy(2)
			connectivity(1, onoff, true)
			connectivity(1, opaque, false)
		})
	}
}

// replayStream replays the channel stream a streaming trial on cfg draws
// at the given seed, pair by pair, and returns how many pairs the stream
// holds and after how many of them the secure edges connect the network
// (0 if they never do).
func replayStream(t *testing.T, cfg Config, seed uint64) (pairs, connectedAt int) {
	t.Helper()
	r := rng.New(seed)
	asg, err := cfg.Scheme.Assign(r, cfg.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := keys.NewIntersector(cfg.Scheme.PoolSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Reset(asg.Rings); err != nil {
		t.Fatal(err)
	}
	var suf graphalgo.StreamUnionFind
	suf.Reset(cfg.Sensors)
	err = cfg.Channel.EmitEdges(r, cfg.Sensors, func(u, v int32) bool {
		pairs++
		if ix.HasAtLeast(u, v, cfg.Scheme.RequiredOverlap()) {
			suf.Add(u, v)
			if connectedAt == 0 && suf.Done() {
				connectedAt = pairs
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs, connectedAt
}

// TestLadderBatchBoundaries pins what the onoff-ladder config exercises on
// the batched Intersector path at the seeds the equivalence tests use:
// every connectivity trial exits early in the middle of a batch, and the
// full streams — which a degree trial at an unreachable level consumes,
// ending on a partial batch — are not whole batches. Those full-stream
// degree trials must match CSR too: their degrees are exact, so a pair
// tested twice or dropped at a batch boundary would show.
func TestLadderBatchBoundaries(t *testing.T) {
	cfg := deployerConfigs(t)["onoff-ladder"]
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		pairs, connectedAt := replayStream(t, cfg, seed)
		if connectedAt == 0 || connectedAt%streamBatch == 0 {
			t.Errorf("seed %d: network connects after pair %d: want an early exit mid-batch", seed, connectedAt)
		}
		if pairs%streamBatch == 0 {
			t.Errorf("seed %d: the stream holds %d pairs, a whole number of batches", seed, pairs)
		}
		refCfg := cfg
		refCfg.Seed = seed
		net, err := Deploy(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		k := cfg.Sensors // unreachable: the stream runs to its end
		got, err := d.DeployDegreeStats(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := degreeStatsOf(t, net, k); got != want {
			t.Fatalf("seed %d k=%d: DegreeStats %+v, want %+v", seed, k, got, want)
		}
	}
}

// TestBatchedPathReuse runs trials that exit mid-batch on one Deployer and
// then full-stream degree trials, each of which must equal a fresh
// Deployer's: no pair of an earlier trial may linger in the batch.
func TestBatchedPathReuse(t *testing.T) {
	cfg := deployerConfigs(t)["onoff-ladder"]
	d, err := NewDeployer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.Sensors
	for seed := uint64(0); seed < 3; seed++ {
		if _, err := d.DeployConnectivity(seed); err != nil {
			t.Fatal(err)
		}
		if d.batched != 0 {
			t.Fatalf("seed %d: %d pairs left in the batch after an early exit", seed, d.batched)
		}
		if _, err := d.DeployDegreeStats(seed+10, 2); err != nil {
			t.Fatal(err)
		}
		got, err := d.DeployDegreeStats(seed+20, k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.DeployDegreeStats(seed+20, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("seed %d on a reused Deployer: %+v, want %+v", seed+20, got, want)
		}
	}
}

// TestStreamingStrategyRule pins which strategy every mode picks at the
// paper's design points, from the cost model alone (no deployment, so the
// n = 10⁶ rung costs nothing): every Figure 1 point takes the row index; the
// sparse-channel ladder rungs keep the Intersector. Disk and HeterOnOff are
// charged their expected pair counts like OnOff.
func TestStreamingStrategyRule(t *testing.T) {
	type point struct {
		name          string
		n, pool, ring int
		q             int
		ch            channel.Model
		want          bool
	}
	var cases []point
	for _, k := range []int{28, 60, 88} {
		for _, q := range []int{2, 3} {
			for _, p := range []float64{0.2, 1} {
				cases = append(cases, point{name: "figure1", n: 1000, pool: 10000, ring: k, q: q,
					ch: channel.OnOff{P: p}, want: true})
			}
		}
	}
	for _, n := range []int{1_000, 100_000, 1_000_000} {
		p := 8 * math.Log(float64(n)) / (0.594 * float64(n))
		cases = append(cases, point{name: "ladder", n: n, pool: 512, ring: 32, q: 2,
			ch: channel.OnOff{P: p}, want: false})
	}
	cases = append(cases,
		point{name: "always-on", n: 1000, pool: 10000, ring: 60, q: 3, ch: channel.AlwaysOn{}, want: true},
		point{name: "disk", n: 1000, pool: 10000, ring: 60, q: 3, ch: channel.Disk{Radius: 0.5}, want: true},
		point{name: "disk-sparse", n: 1000, pool: 512, ring: 32, q: 2, ch: channel.Disk{Radius: 0.05, Torus: true}, want: false},
		point{name: "disk-zero", n: 1000, pool: 10000, ring: 60, q: 3, ch: channel.Disk{}, want: false},
		point{name: "hetero", n: 1000, pool: 10000, ring: 60, q: 3, ch: channel.UniformHeterOnOff(1, 0.5), want: true},
		point{name: "hetero-sparse", n: 1000, pool: 512, ring: 32, q: 2, ch: channel.UniformHeterOnOff(1, 0.01), want: false},
		point{name: "opaque-onoff", n: 1000, pool: 10000, ring: 60, q: 3, ch: opaqueOnOff{channel.OnOff{P: 1}}, want: false},
		point{name: "q-past-saturation", n: 1000, pool: 10000, ring: 300, q: maxCountedOverlap + 1,
			ch: channel.AlwaysOn{}, want: false},
		point{name: "singleton", n: 1, pool: 10000, ring: 60, q: 3, ch: channel.AlwaysOn{}, want: false},
	)
	for _, c := range cases {
		scheme, err := keys.NewQComposite(c.pool, c.ring, c.q)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDeployer(Config{Sensors: c.n, Scheme: scheme, Channel: c.ch})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.useRowIndex(c.n*c.ring, nil); got != c.want {
			t.Errorf("%s n=%d K=%d q=%d %s: row index %v, want %v",
				c.name, c.n, c.ring, c.q, c.ch.Name(), got, c.want)
		}
	}
}

// outOfPoolScheme assigns every sensor keys 0..ring−2 plus one key: the
// pool's size for the last sensor, a valid ID otherwise — a malformed
// assignment discovery must reject.
type outOfPoolScheme struct{ pool, ring int }

func (s outOfPoolScheme) Name() string          { return "out-of-pool" }
func (s outOfPoolScheme) PoolSize() int         { return s.pool }
func (s outOfPoolScheme) RequiredOverlap() int  { return 1 }
func (s outOfPoolScheme) Classes() []keys.Class { return []keys.Class{{Mu: 1, RingSize: s.ring}} }
func (s outOfPoolScheme) Assign(_ *rng.Rand, n int) (keys.Assignment, error) {
	rings := make([]keys.Ring, n)
	for v := range rings {
		ids := make([]keys.ID, s.ring)
		for i := range ids {
			ids[i] = keys.ID(i)
		}
		if v == n-1 {
			ids[s.ring-1] = keys.ID(s.pool)
		}
		rings[v] = keys.NewRing(ids)
	}
	return keys.Assignment{Rings: rings}, nil
}

// TestStreamingRejectsOutOfPoolKeys checks that a ring key outside the pool
// is an error, not a panic, on the row index and on both Intersector
// strategies, in both streaming modes and on the CSR path.
func TestStreamingRejectsOutOfPoolKeys(t *testing.T) {
	for _, c := range []struct {
		name    string
		scheme  outOfPoolScheme
		ch      channel.Model
		wantRow bool
	}{
		{name: "row-index", scheme: outOfPoolScheme{pool: 100, ring: 10}, ch: channel.AlwaysOn{}, wantRow: true},
		{name: "intersector-dense", scheme: outOfPoolScheme{pool: 100, ring: 10}, ch: opaqueOnOff{channel.OnOff{P: 0.5}}},
		{name: "intersector-merge", scheme: outOfPoolScheme{pool: 10000, ring: 10}, ch: opaqueOnOff{channel.OnOff{P: 0.5}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := NewDeployer(Config{Sensors: 50, Scheme: c.scheme, Channel: c.ch})
			if err != nil {
				t.Fatal(err)
			}
			if got := d.useRowIndex(50*c.scheme.ring, nil); got != c.wantRow {
				t.Fatalf("row index %v, want %v", got, c.wantRow)
			}
			if _, err := d.DeployConnectivity(1); err == nil {
				t.Error("DeployConnectivity: want an out-of-pool error")
			}
			if _, err := d.DeployDegreeStats(1, 1); err == nil {
				t.Error("DeployDegreeStats: want an out-of-pool error")
			}
			if _, err := d.Deploy(1); err == nil {
				t.Error("Deploy: want an out-of-pool error")
			}
		})
	}
}

// BenchmarkFigure1DeployConnectivity times one Figure 1 trial on the engine
// cmd/figure1 runs — DeployConnectivity at n = 1000, P = 10000 — for each
// of the six curves at its paper K* threshold, where trials split between
// connected and not and the early exit fires late.
func BenchmarkFigure1DeployConnectivity(b *testing.B) {
	curves := []struct {
		name string
		q    int
		p    float64
		k    int
	}{
		{name: "q2_p1.0_K35", q: 2, p: 1.0, k: 35},
		{name: "q2_p0.5_K41", q: 2, p: 0.5, k: 41},
		{name: "q2_p0.2_K52", q: 2, p: 0.2, k: 52},
		{name: "q3_p1.0_K60", q: 3, p: 1.0, k: 60},
		{name: "q3_p0.5_K67", q: 3, p: 0.5, k: 67},
		{name: "q3_p0.2_K78", q: 3, p: 0.2, k: 78},
	}
	for _, c := range curves {
		b.Run(c.name, func(b *testing.B) {
			scheme, err := keys.NewQComposite(10000, c.k, c.q)
			if err != nil {
				b.Fatal(err)
			}
			d, err := NewDeployer(Config{Sensors: 1000, Scheme: scheme, Channel: channel.OnOff{P: c.p}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.DeployConnectivity(uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
