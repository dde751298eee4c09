package wsn

import (
	"fmt"
	"testing"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// topologyFingerprint folds a graph's exact edge set (CSR order, U < V)
// into an FNV-1a hash, so two graphs collide only if they are (with
// overwhelming probability) edge-for-edge identical.
func topologyFingerprint(g *graph.Undirected) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
	}
	mix(uint64(g.N()))
	mix(uint64(g.M()))
	g.ForEachEdge(func(u, v int32) bool {
		mix(uint64(uint32(u)))
		mix(uint64(uint32(v)))
		return true
	})
	return h
}

// emittedGraph draws cfg's channel on n sensors from r through the model's
// emitter (with the deployment's class labels when the model is
// class-aware) and merges the pairs into a CSR graph.
func emittedGraph(t *testing.T, cfg Config, r *rng.Rand, labels []uint8) *graph.Undirected {
	t.Helper()
	var edges []graph.Edge
	yield := func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}
	var err error
	if cm, ok := cfg.Channel.(channel.ClassModel); ok {
		err = cm.EmitClassEdges(r, cfg.Sensors, labels, yield)
	} else {
		err = cfg.Channel.EmitEdges(r, cfg.Sensors, yield)
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewFromEdges(cfg.Sensors, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// deployPin is what TestDeployPinned records of one deployment.
type deployPin struct {
	secure         uint64 // topologyFingerprint of FullSecureTopology
	channelEdges   int    // Report.ChannelEdges
	keyComparisons int64  // SimulateDiscovery
	unicasts       int    // SimulateDiscovery
	next           uint64 // the generator's next word after DeployRand
}

// TestDeployPinned pins CSR deployments of every deployerConfigs entry at
// three seeds: the secure topology, the channel-edge count, the discovery
// protocol's cost, and where the deployment leaves the generator. Campaign
// trials and cmd/properties keep drawing from the generator after
// deploying, so the last pin is part of the contract.
func TestDeployPinned(t *testing.T) {
	want := map[string]deployPin{
		"always-on/1":           {0x55a220f9a643f2bd, 3160, 505600, 5368, 0x158b331e84725fb3},
		"always-on/2":           {0xa9ffa4e0a2df57ce, 3160, 505600, 5368, 0x492fd2dcb9d29bfb},
		"always-on/3":           {0xf6d633d5b8ed1f07, 3160, 505600, 5286, 0x325246036485d3cb},
		"disk-torus/1":          {0x60dc30735d94bb22, 1408, 225280, 2390, 0x1c252c55683b946c},
		"disk-torus/2":          {0xab0a1fa9162b956c, 1402, 224320, 2400, 0x4ac2a8222d7ccb1},
		"disk-torus/3":          {0x56d29e5aaf4e91fb, 1347, 215520, 2258, 0x8e028aa5855a3d90},
		"disk-zero/1":           {0x363aeec855d810d7, 0, 0, 0, 0x399d101630e06529},
		"disk-zero/2":           {0x363aeec855d810d7, 0, 0, 0, 0x829eefe73a41e777},
		"disk-zero/3":           {0x363aeec855d810d7, 0, 0, 0, 0xc0e7fa0e36803caf},
		"hetero-heterchannel/1": {0x9cc22ddbfd48e24e, 3561, 454950, 5218, 0xa5184208d30b0eef},
		"hetero-heterchannel/2": {0xff53eab367da5c99, 3918, 394230, 4874, 0x72cdd6339a7c6f47},
		"hetero-heterchannel/3": {0xe1d666077d39e0c3, 3890, 391860, 4536, 0xdfd10033573d81e9},
		"hetero-onoff/1":        {0x99a2402eda6165bc, 4277, 572310, 6646, 0xf13acd50b91f7d51},
		"hetero-onoff/2":        {0x35dd1fc7be6571b1, 4312, 484740, 5902, 0x84d25ee18c631f3b},
		"hetero-onoff/3":        {0x6bb453757e53ef51, 4253, 488910, 5720, 0x6518a07b6cebd48b},
		"onoff-all-off/1":       {0x363aeec855d810d7, 0, 0, 0, 0x85eaad6a98532b3c},
		"onoff-all-off/2":       {0x363aeec855d810d7, 0, 0, 0, 0xd42b481f5371b79},
		"onoff-all-off/3":       {0x363aeec855d810d7, 0, 0, 0, 0xafb68c8fd69b3135},
		"onoff-dense/1":         {0xfc2ffae468252a9c, 5667, 906720, 9674, 0xede9c196c5df0aa0},
		"onoff-dense/2":         {0xb9d10a3d146e9e29, 5674, 907840, 9756, 0x81c0d042a7fb096c},
		"onoff-dense/3":         {0x7729a4c9351cdbb7, 5728, 916480, 9690, 0x65edd34cac0ad969},
		"onoff-ladder/1":        {0xc60200b8bd6a228e, 46541, 5957248, 57380, 0xda5eabd89d078c13},
		"onoff-ladder/2":        {0xe5ec85fb940fe2c4, 46722, 5980416, 57252, 0x1b8b6908ac13e156},
		"onoff-ladder/3":        {0xbeab97d936b3297e, 46119, 5903232, 56540, 0x14a20ce26ae405ee},
		"onoff-p1/1":            {0xa83ba3c39ce83538, 19900, 1592000, 8, 0xe24c4c6eb8f96a7c},
		"onoff-p1/2":            {0x1d3adcf03d511660, 19900, 1592000, 14, 0x505838c4c12914b5},
		"onoff-p1/3":            {0xfb905c89ac43d7fa, 19900, 1592000, 16, 0x4f906186bf4e8d9e},
		"onoff-q3/1":            {0x6696025047daf66a, 9872, 789760, 2, 0x92c6e46dec1bcd2a},
		"onoff-q3/2":            {0xbf19778b78132fc4, 9901, 792080, 8, 0x63f8da7cc5f7e90f},
		"onoff-q3/3":            {0x48bb0fc2a5e6c808, 9997, 799760, 10, 0x62417256d3362ab8},
		"onoff-sparse/1":        {0x3757d5166616a943, 79, 3792, 4, 0xc91f0e4f0a6260f2},
		"onoff-sparse/2":        {0xc3ad64757b405b59, 70, 3360, 2, 0x4e48a4776957930e},
		"onoff-sparse/3":        {0xbbcebd237a2c0e70, 79, 3792, 2, 0xfdd16c15c40ac532},
	}
	cfgs := deployerConfigs(t)
	for name, cfg := range cfgs {
		d, err := NewDeployer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/%d", name, seed)
			r := rng.New(seed)
			net, err := d.DeployRand(r)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := net.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st, err := net.SimulateDiscovery()
			if err != nil {
				t.Fatal(err)
			}
			got := deployPin{
				secure:         topologyFingerprint(net.FullSecureTopology()),
				channelEdges:   rep.ChannelEdges,
				keyComparisons: st.KeyComparisons,
				unicasts:       st.Unicasts,
				next:           r.Uint64(),
			}
			if got != want[key] {
				t.Errorf("%s: got {%#x, %d, %d, %d, %#x}, want %+v",
					key, got.secure, got.channelEdges, got.keyComparisons, got.unicasts, got.next, want[key])
			}
		}
	}
}
