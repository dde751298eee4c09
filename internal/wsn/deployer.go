package wsn

import (
	"fmt"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// maxDenseCounterNodes bounds the network size for which inverted-index
// discovery keeps a dense pair-count table (n·(n−1)/2 bytes, ≈ 2 MB at the
// bound). Larger deployments count per row instead: the sparse path keeps
// memory O(n) and the same total pair work, so index discovery scales to
// n ≥ 10⁵.
const maxDenseCounterNodes = 2048

// maxCountedOverlap is the saturation point of the pair counters; the index
// strategy is only exact for q below it, which every practical q-composite
// deployment satisfies (q is single digits in the paper).
const maxCountedOverlap = 255

// Deployer deploys networks repeatedly with amortized buffers: key-ring
// storage (one flat arena), the shared-key discovery workspace, edge lists
// and liveness flags are all reused across calls, so a Monte Carlo trial
// pays only for what cannot be shared (the sampled channel graph and the
// final CSR topology).
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
// Shared-key discovery is strategy-adaptive and class-aware. When the
// channel graph is dense relative to the key index, discovery inverts the
// assignment into a key→holders index and counts shared keys per co-holding
// pair — O(Σ_k h_k²) instead of one ring intersection per channel edge —
// with a dense triangular counter table at small n and a per-row counter at
// large n. Otherwise it intersects rings per channel edge through a
// density-adaptive keys.Intersector (bitset-backed for dense rings, sorted
// merge for sparse ones). The streaming modes choose between the same two
// families per deployment: a lazily rebuilt per-row count over the
// key→holders index, or the Intersector, fed emitted pairs in batches (see
// useRowIndex and flush). All strategies compute the same exact predicate
// from the actual per-sensor rings (ring sizes may differ per class), so
// the resulting topology is byte-identical whichever runs.
type Deployer struct {
	cfg   Config
	arena keys.RingArena
	ix    *keys.Intersector
	edges []graph.Edge

	// Reseeded per Deploy call, so seed-taking deployments allocate no
	// per-trial generator.
	rand rng.Rand

	// Reusable CSR builders: one per graph the deployment produces, so the
	// channel graph never invalidates the secure topology. Each builder is
	// double-buffered, so a Network's graphs stay valid while the *next*
	// deployment is being built and are reclaimed by the one after — the
	// lifetime the Deployer documents.
	chanBld *graph.Builder
	secBld  *graph.Builder

	// Shared connectivity scratch, threaded into every deployed Network.
	algo *graphalgo.Workspace

	// Double-buffered Network storage (headers, liveness flags, link-table
	// buffers), matching the builders' lifetime.
	nets   [2]Network
	netIdx int

	// Inverted-index discovery workspace (allocated on first use).
	keyCnt  []int32 // per-key holder count, then fill cursor
	keyOff  []int32 // prefix offsets into holders
	holders []int32 // sensors holding each key, grouped by key

	// Dense counting (n ≤ maxDenseCounterNodes).
	counts   []uint8 // shared-key count per node pair (triangular index)
	touched  []int32 // packed (u<<16|v) pairs with a nonzero count
	rowStart []int32 // triangular row offsets: idx(u,v) = rowStart[u] + v

	// Sparse per-row counting (larger n, and the streaming row index).
	rowCnt     []uint8 // shared-key count of the current row's pairs
	rowTouched []int32 // peers of the current row with a nonzero count

	// Streaming row index (see sharesQ): whether the current streaming
	// deployment answers pairs from rowCnt, the rings it counts from, and
	// the sensor whose row rowCnt holds (-1 when none).
	rowIndex bool
	rowRings []keys.Ring
	row      int32

	// Streaming connectivity-only mode (DeployConnectivity): the union-find
	// sink and its persistent yield closure. The closure is created once and
	// reused because it crosses the channel.EdgeEmitter interface boundary,
	// where a per-call closure would escape and allocate every trial.
	suf         graphalgo.StreamUnionFind
	streamQ     int
	streamYield func(u, v int32) bool

	// Streaming degree mode (DeployDegreeStats): the degree accumulator
	// running beside the union-find in the same edge pass, with its own
	// persistent yield closure (early exit needs BOTH sinks done).
	sd       graphalgo.StreamDegrees
	degYield func(u, v int32) bool

	// Batched Intersector path of both streaming modes (see flush):
	// batch[:batched] holds the pairs emitted since the last flush (none
	// between deployments: every stream ends with a flush), keep
	// FilterAtLeast's verdicts on them; batchDegrees says whether the
	// degree accumulator rides along. batchYield is the persistent yield.
	batch        [streamBatch][2]int32
	batched      int
	keep         [streamBatch]int32
	batchDegrees bool
	batchYield   func(u, v int32) bool
}

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
		cfg:     cfg,
		chanBld: graph.NewBuilder(),
		secBld:  graph.NewBuilder(),
		algo:    graphalgo.NewWorkspace(),
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
// point for Monte Carlo trials that are handed a per-trial stream.
func (d *Deployer) DeployRand(r *rng.Rand) (*Network, error) {
	return d.deploy(d.cfg, r)
}

func (d *Deployer) deploy(cfg Config, r *rng.Rand) (*Network, error) {
	n := cfg.Sensors

	// 1. Key predistribution: per-sensor class labels and class-sized rings.
	// Schemes that support arena assignment write the rings into the
	// Deployer's arena; others allocate per deployment.
	var asg keys.Assignment
	var err error
	if aa, ok := cfg.Scheme.(keys.ArenaAssigner); ok {
		asg, err = aa.AssignInto(r, n, &d.arena)
	} else {
		asg, err = cfg.Scheme.Assign(r, n)
	}
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}
	rings := asg.Rings

	// 2. Physical channel sampling through the deployer-owned builder when
	// the model supports it (all built-in models do; the unbuffered branches
	// keep third-party Model implementations working). Class-aware models
	// receive the deployment's class labels, so the scheme and channel
	// observe one shared class assignment.
	var channels *graph.Undirected
	if cm, ok := cfg.Channel.(channel.ClassModel); ok {
		if bcm, ok := cfg.Channel.(channel.BufferedClassModel); ok {
			channels, err = bcm.SampleClassesInto(r, n, asg.Labels, d.chanBld)
		} else {
			channels, err = cm.SampleClasses(r, n, asg.Labels)
		}
	} else if bm, ok := cfg.Channel.(channel.BufferedModel); ok {
		channels, err = bm.SampleInto(r, n, d.chanBld)
	} else {
		channels, err = cfg.Channel.Sample(r, n)
	}
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}

	// 3. Shared-key discovery over usable channels; the secure topology is
	// built through the deployer's second builder.
	q := cfg.Scheme.RequiredOverlap()
	d.edges = d.edges[:0]
	if d.useIndexDiscovery(rings, channels) {
		err = d.discoverByIndex(rings, channels, q)
	} else {
		err = d.discoverByEdges(rings, channels, q)
	}
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}
	secure, err := d.secBld.FromEdges(n, d.edges)
	if err != nil {
		return nil, fmt.Errorf("wsn: deploy: %w", err)
	}

	// 4. Assemble the Network in the double-buffered slot, keeping its
	// grown buffers (liveness flags, link table) across reuse.
	net := &d.nets[d.netIdx]
	d.netIdx ^= 1
	net.reset(cfg, rings, asg.Labels, channels, secure, d.algo)
	return net, nil
}

// useIndexDiscovery decides the CSR discovery strategy from the rings
// actually assigned (per-sensor sizes; heterogeneous classes make them
// uneven) and the sampled channel's edge count.
func (d *Deployer) useIndexDiscovery(rings []keys.Ring, channels *graph.Undirected) bool {
	return d.indexCheaper(totalKeys(rings), float64(channels.M()))
}

// indexCheaper is the discovery cost model shared by the CSR and streaming
// paths. The inverted index costs roughly ΣK index building plus
// Σ_k h_k² ≈ ΣK·(ΣK/P) pair increments; per-pair intersection costs one
// O(mean K) ring intersection for each of the given channel pairs. The
// index also needs exact counters (q below saturation).
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

// discoverByEdges intersects the endpoint rings of every channel edge.
func (d *Deployer) discoverByEdges(rings []keys.Ring, channels *graph.Undirected, q int) error {
	if d.ix == nil {
		ix, err := keys.NewIntersector(d.cfg.Scheme.PoolSize())
		if err != nil {
			return err
		}
		d.ix = ix
	}
	if err := d.ix.Reset(rings); err != nil {
		return err
	}
	channels.ForEachEdge(func(u, v int32) bool {
		if d.ix.HasAtLeast(u, v, q) {
			d.edges = append(d.edges, graph.Edge{U: u, V: v})
		}
		return true
	})
	return nil
}

// buildKeyIndex inverts the assignment into the key→holders index:
// holders[keyOff[k]:keyOff[k+1]] lists the sensors holding key k, in
// ascending sensor order. Ring IDs outside [0, PoolSize) are a validation
// error, matching the per-edge path. On return d.keyCnt[:pool] is all zero
// (ready for reuse as a per-key cursor).
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
	for k := 0; k < pool; k++ {
		keyCnt[k] = 0
	}
	return nil
}

// discoverByIndex inverts the assignment into a key→holders index, counts
// shared keys for every co-holding pair, and keeps pairs that both meet the
// overlap requirement and have an on channel. Counters saturate at
// maxCountedOverlap, which indexCheaper guarantees is ≥ q. Small
// networks count into a dense triangular table; larger ones count row by
// row in O(n) memory.
func (d *Deployer) discoverByIndex(rings []keys.Ring, channels *graph.Undirected, q int) error {
	pool := d.cfg.Scheme.PoolSize()
	if err := d.buildKeyIndex(rings, pool); err != nil {
		return err
	}
	if d.cfg.Sensors <= maxDenseCounterNodes {
		d.countPairsDense(channels, q)
	} else {
		d.countPairsByRow(rings, channels, q)
	}
	return nil
}

// countPairsDense counts shared keys per co-holding pair in a dense
// triangular table, then emits qualifying pairs with an on channel,
// resetting counters as it goes so the table is all-zero for the next
// deployment. Only valid for n ≤ maxDenseCounterNodes (the packed touched
// entries also need n < 2¹⁶).
func (d *Deployer) countPairsDense(channels *graph.Undirected, q int) {
	n := d.cfg.Sensors
	if len(d.rowStart) < n {
		d.rowStart = make([]int32, n)
		d.counts = make([]uint8, n*(n-1)/2)
	}
	// idx(u,v) for u < v flattens the strict upper triangle row by row.
	acc := int32(0)
	for u := 0; u < n; u++ {
		d.rowStart[u] = acc - int32(u) - 1
		acc += int32(n - u - 1)
	}

	// Count shared keys per co-holding pair. Holder lists are ascending (we
	// filled them by ascending sensor), so hs[i] < hs[j] for i < j.
	d.touched = d.touched[:0]
	pool := d.cfg.Scheme.PoolSize()
	for k := 0; k < pool; k++ {
		hs := d.holders[d.keyOff[k]:d.keyOff[k+1]]
		for i := 0; i < len(hs); i++ {
			base := d.rowStart[hs[i]]
			packed := int32(hs[i]) << 16
			for j := i + 1; j < len(hs); j++ {
				idx := base + hs[j]
				if d.counts[idx] == 0 {
					d.touched = append(d.touched, packed|hs[j])
				}
				if d.counts[idx] < maxCountedOverlap {
					d.counts[idx]++
				}
			}
		}
	}

	for _, p := range d.touched {
		u, v := p>>16, p&0xffff
		idx := d.rowStart[u] + v
		if int(d.counts[idx]) >= q && channels.HasEdge(u, v) {
			d.edges = append(d.edges, graph.Edge{U: u, V: v})
		}
		d.counts[idx] = 0
	}
}

// countPairsByRow is the sparse counting fallback for n beyond the dense
// table: it walks sensors in ascending order, and for row u counts the
// co-holders w > u of each of u's keys into an n-length counter that is
// cleared per row via a touched list. The per-key cursor (reusing keyCnt)
// advances past u in O(1) amortized because rows visit each holder list in
// ascending order. Total pair work matches the dense path; memory is O(n)
// instead of O(n²).
func (d *Deployer) countPairsByRow(rings []keys.Ring, channels *graph.Undirected, q int) {
	n := d.cfg.Sensors
	if cap(d.rowCnt) < n {
		d.rowCnt = make([]uint8, n)
	}
	rowCnt := d.rowCnt[:n]
	for u := 0; u < n; u++ {
		d.rowTouched = d.rowTouched[:0]
		rings[u].ForEachID(func(k keys.ID) bool {
			// keyCnt[k] holders of k precede u and are already consumed;
			// the next one is u itself.
			cur := d.keyOff[k] + d.keyCnt[k]
			d.keyCnt[k]++
			for _, w := range d.holders[cur+1 : d.keyOff[k+1]] {
				if rowCnt[w] == 0 {
					d.rowTouched = append(d.rowTouched, w)
				}
				if rowCnt[w] < maxCountedOverlap {
					rowCnt[w]++
				}
			}
			return true
		})
		for _, w := range d.rowTouched {
			if int(rowCnt[w]) >= q && channels.HasEdge(int32(u), w) {
				d.edges = append(d.edges, graph.Edge{U: int32(u), V: w})
			}
			rowCnt[w] = 0
		}
	}
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
