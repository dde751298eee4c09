package wsn

import (
	"fmt"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// maxCountedOverlap is the saturation point of the row counters; the row
// index is only exact for q below it, which every practical q-composite
// deployment satisfies (q is single digits in the paper).
const maxCountedOverlap = 255

// Deployer deploys networks repeatedly with amortized buffers: key-ring
// storage (one flat arena), the shared-key test's workspace, the secure
// edge list, per-sensor channel degrees and liveness flags are all reused
// across calls, so a Monte Carlo trial pays only for what cannot be shared.
//
// The returned *Network aliases the Deployer's buffers and remains valid
// only until the next Deploy/DeployRand call (the storage is double-buffered,
// so the previous network is not corrupted *while* the next deployment is
// being built, but callers must not rely on more than one network at a
// time). Callers that need a long-lived network should use the package-level
// Deploy, which dedicates a Deployer to the one network. A Deployer is not
// safe for concurrent use — use a DeployerPool to share one configuration
// across Monte Carlo workers.
//
// Every deployment mode runs one edge pipeline (streamSecureEdges): assign
// the key rings, then stream the channel draw pair by pair through the
// shared-key test into a sink. A full deployment's sink collects the secure
// edges into a CSR topology; the graph-free modes feed a union-find and a
// degree accumulator instead. The shared-key test is strategy-adaptive and
// class-aware: when the channel is dense relative to the key index it
// counts, row by row, the shared keys of every co-holding pair through a
// key→holders index; otherwise it tests emitted pairs in batches with a
// density-adaptive keys.Intersector (bitset-backed for dense rings, sorted
// merge for sparse ones). See useRowIndex and flush. When the channel turns
// every pair on without drawing randomness (OnOff{P: 1}, AlwaysOn), the row
// index runs key-first: it skips the walk over all C(n, 2) channel pairs and
// yields each row's key-sharing pairs only (see emitKeyFirst). Both
// strategies compute the same exact predicate from the actual per-sensor
// rings (ring sizes may differ per class), so the resulting topology is
// byte-identical whichever runs.
type Deployer struct {
	cfg   Config
	arena keys.RingArena
	ix    *keys.Intersector
	edges []graph.Edge

	// Reseeded per Deploy call, so seed-taking deployments allocate no
	// per-trial generator.
	rand rng.Rand

	// Reusable builder of the secure topology. It is double-buffered, so a
	// Network's graph stays valid while the *next* deployment is being
	// built and is reclaimed by the one after — the lifetime the Deployer
	// documents.
	secBld *graph.Builder

	// Shared connectivity scratch, threaded into every deployed Network.
	algo *graphalgo.Workspace

	// Double-buffered Network storage (headers, channel degrees, liveness
	// flags, link-table buffers), matching the builder's lifetime.
	nets   [2]Network
	netIdx int

	// Key→holders index behind the row index (allocated on first use).
	keyCnt  []int32 // per-key holder count, then fill cursor
	keyOff  []int32 // prefix offsets into holders
	holders []int32 // sensors holding each key, grouped by key

	// Row index (see sharesQ): whether the current deployment answers pairs
	// from rowCnt, whether it runs key-first (emitKeyFirst), the shared-key
	// count of the counted row's pairs, the peers with a nonzero count, the
	// rings it counts from, and the sensor whose row rowCnt holds (-1 when
	// none).
	rowIndex   bool
	keyFirst   bool
	rowCnt     []uint8
	rowTouched []int32
	rowRings   []keys.Ring
	row        int32

	// The sinks. sink selects what flush feeds; each mode's row-index yield
	// is a persistent closure, created once and reused because it crosses
	// the channel.Model interface boundary, where a per-call closure would
	// escape and allocate every trial.
	//
	// Connectivity-only mode (DeployConnectivity): the union-find.
	suf         graphalgo.StreamUnionFind
	streamQ     int
	streamYield func(u, v int32) bool

	// Degree mode (DeployDegreeStats): the degree accumulator running beside
	// the union-find in the same edge pass (early exit needs BOTH sinks
	// done).
	sd       graphalgo.StreamDegrees
	degYield func(u, v int32) bool

	// Full deployment (Deploy): appends every secure pair to edges and
	// counts every channel pair into chanDeg, the per-sensor channel degrees
	// of the Network slot being built (key-first emission yields secure
	// pairs only, so deploy overwrites them afterwards). It never stops the
	// stream.
	chanDeg      []int32
	collectYield func(u, v int32) bool

	// Batched Intersector path of every mode (see flush): batch[:batched]
	// holds the pairs emitted since the last flush (none between
	// deployments: every stream ends with a flush), keep FilterAtLeast's
	// verdicts on them. batchYield is the persistent yield.
	sink       sinkKind
	batch      [streamBatch][2]int32
	batched    int
	keep       [streamBatch]int32
	batchYield func(u, v int32) bool
}

// sinkKind says which sinks flush feeds the accepted pairs of a batch.
type sinkKind uint8

const (
	sinkConnectivity sinkKind = iota // the union-find
	sinkDegrees                      // the union-find and the degree accumulator
	sinkCollect                      // the secure edge list and channel degrees
)

// NewDeployer validates the configuration (including the channel model's
// Validate and the scheme/channel class pairing) and returns a Deployer for
// it. The configuration's Seed field is ignored; each Deploy call takes its
// own seed.
func NewDeployer(cfg Config) (*Deployer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return newDeployer(cfg), nil
}

// newDeployer constructs a Deployer for an already-validated configuration.
func newDeployer(cfg Config) *Deployer {
	return &Deployer{
		cfg:    cfg,
		secBld: graph.NewBuilder(),
		algo:   graphalgo.NewWorkspace(),
	}
}

// Config returns the deployment configuration (Seed field as passed to
// NewDeployer, not any per-call seed).
func (d *Deployer) Config() Config { return d.cfg }

// Deploy deploys a network from the given seed. It is deterministic: equal
// seeds yield byte-identical secure topologies and link keys, matching the
// package-level Deploy with the same Config.
func (d *Deployer) Deploy(seed uint64) (*Network, error) {
	cfg := d.cfg
	cfg.Seed = seed
	d.rand.Reseed(seed)
	return d.deploy(cfg, &d.rand)
}

// DeployRand deploys a network drawing all randomness from r — the entry
// point for Monte Carlo trials that are handed a per-trial stream. The
// channel draw is drained, so r may be drawn from afterwards.
func (d *Deployer) DeployRand(r *rng.Rand) (*Network, error) {
	return d.deploy(d.cfg, r)
}

// deploy streams the deployment's secure edges into the collect sink and
// builds the secure topology from them, in the double-buffered Network slot
// whose channel-degree buffer the sink fills (deploy overwrites it after
// key-first emission, which yields no pair without a secure link).
func (d *Deployer) deploy(cfg Config, r *rng.Rand) (*Network, error) {
	n := cfg.Sensors
	net := &d.nets[d.netIdx]
	d.chanDeg = net.resetChanDeg(n)
	d.edges = d.edges[:0]
	d.sink = sinkCollect
	if d.collectYield == nil {
		// Persistent for the same reason as streamYield.
		d.collectYield = func(u, v int32) bool {
			d.chanDeg[u]++
			d.chanDeg[v]++
			if d.sharesQ(u, v) {
				d.edges = append(d.edges, graph.Edge{U: u, V: v})
			}
			return true
		}
	}
	asg, err := d.streamSecureEdges(r, d.collectYield)
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}
	if d.keyFirst {
		// The all-on channel gives every sensor n − 1 channels.
		for v := range d.chanDeg {
			d.chanDeg[v] = int32(n - 1)
		}
	}
	secure, err := d.secBld.FromEdges(n, d.edges)
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}
	d.netIdx ^= 1
	net.reset(cfg, asg.Rings, asg.Labels, secure, d.algo)
	return net, nil
}

// indexCheaper is the shared-key strategy's cost model. The row index costs
// roughly ΣK index building plus Σ_k h_k² ≈ ΣK·(ΣK/P) row increments;
// per-pair intersection costs one O(mean K) ring intersection for each of
// the given channel pairs. The row index also needs exact counters (q
// below saturation).
func (d *Deployer) indexCheaper(totalKeys int, pairs float64) bool {
	n := d.cfg.Sensors
	if n < 2 || d.cfg.Scheme.RequiredOverlap() > maxCountedOverlap {
		return false
	}
	pool := float64(d.cfg.Scheme.PoolSize())
	nk := float64(totalKeys)
	indexWork := nk * (nk/pool + 1)
	edgeWork := pairs * nk / float64(n)
	return edgeWork > indexWork
}

// totalKeys returns ΣK, the number of key IDs across all rings.
func totalKeys(rings []keys.Ring) int {
	total := 0
	for _, ring := range rings {
		total += ring.Len()
	}
	return total
}

// buildKeyIndex inverts the assignment into the key→holders index:
// holders[keyOff[k]:keyOff[k+1]] lists the sensors holding key k, in
// ascending sensor order. Ring IDs outside [0, PoolSize) are a validation
// error, matching the Intersector.
func (d *Deployer) buildKeyIndex(rings []keys.Ring, pool int) error {
	if len(d.keyCnt) < pool {
		d.keyCnt = make([]int32, pool)
		d.keyOff = make([]int32, pool+1)
	}
	keyCnt := d.keyCnt[:pool]
	for k := range keyCnt {
		keyCnt[k] = 0
	}
	total := 0
	for v, ring := range rings {
		var badID keys.ID
		bad := false
		ring.ForEachID(func(k keys.ID) bool {
			if int(k) < 0 || int(k) >= pool {
				badID, bad = k, true
				return false
			}
			keyCnt[k]++
			total++
			return true
		})
		if bad {
			return fmt.Errorf("wsn: ring %d key %d outside pool [0,%d)", v, badID, pool)
		}
	}
	d.keyOff[0] = 0
	for k := 0; k < pool; k++ {
		d.keyOff[k+1] = d.keyOff[k] + keyCnt[k]
		keyCnt[k] = 0 // reuse as fill cursor
	}
	if cap(d.holders) < total {
		d.holders = make([]int32, total)
	}
	d.holders = d.holders[:total]
	for v, ring := range rings {
		ring.ForEachID(func(k keys.ID) bool {
			d.holders[d.keyOff[k]+keyCnt[k]] = int32(v)
			keyCnt[k]++
			return true
		})
	}
	return nil
}

// DeployerPool shares one deployment configuration across concurrent Monte
// Carlo workers: each worker borrows a Deployer per trial, so buffers are
// amortized per worker without any locking on the deploy path.
type DeployerPool struct {
	cfg  Config
	pool sync.Pool
}

// NewDeployerPool validates the configuration once and returns the pool.
func NewDeployerPool(cfg Config) (*DeployerPool, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &DeployerPool{cfg: cfg}, nil
}

// Get borrows a Deployer. Return it with Put when the trial is done with
// the deployed network.
func (p *DeployerPool) Get() *Deployer {
	if d, ok := p.pool.Get().(*Deployer); ok {
		return d
	}
	return newDeployer(p.cfg)
}

// Put returns a borrowed Deployer to the pool. Networks deployed from it
// must no longer be used.
func (p *DeployerPool) Put(d *Deployer) { p.pool.Put(d) }
