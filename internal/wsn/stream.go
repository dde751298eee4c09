package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// ConnStats are the union-find-answerable statistics of one deployment's
// secure topology, as computed by the streaming connectivity-only mode. The
// values match the CSR path bit for bit: Connected equals
// Network.IsConnected on a fresh deployment, Components and Giant equal
// graphalgo.Components / LargestComponentSize on FullSecureTopology, and
// Isolated equals its degree-0 count.
type ConnStats struct {
	// Connected reports whether the secure topology is one component
	// (n ≤ 1 counts as connected, the Report convention).
	Connected bool
	// Components is the number of connected components.
	Components int
	// Giant is the size of the largest component (0 when n = 0).
	Giant int
	// Isolated is the number of degree-0 sensors.
	Isolated int
}

// DeployConnectivity runs a deployment in connectivity-only mode from the
// given seed: key rings are assigned exactly as Deploy, but the channel draw
// is streamed edge by edge through the shared-key test into a union-find —
// no channel CSR, no secure CSR, no edge list, no link keys — so memory
// stays O(n + ΣK) however dense the channel is. The emitter is stopped once
// one component remains (the verdict of every further edge is determined),
// which on the connected plateau skips most of each draw. On the row index
// it stops at that very edge; on the Intersector, which tests emitted pairs
// in batches of streamBatch (see flush), at the end of the batch in which
// the verdict became final.
//
// Determinism: rings and channel randomness are drawn exactly as Deploy up
// to the early exit, and the reported statistics are order-independent
// functions of the secure edge set, final once one component remains, so
// DeployConnectivity(seed) agrees with the statistics of Deploy(seed) for
// every channel model. Because the early exit leaves the remainder of the
// channel draw unconsumed (and a batch may draw past the deciding edge), a
// generator handed to DeployConnectivityRand must not be used for anything
// afterwards within the same trial (per-trial streams, as montecarlo
// provides, satisfy this).
func (d *Deployer) DeployConnectivity(seed uint64) (ConnStats, error) {
	d.rand.Reseed(seed)
	return d.deployConnectivity(&d.rand)
}

// DeployConnectivityRand is DeployConnectivity drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployConnectivityRand(r *rng.Rand) (ConnStats, error) {
	return d.deployConnectivity(r)
}

func (d *Deployer) deployConnectivity(r *rng.Rand) (ConnStats, error) {
	d.suf.Reset(d.cfg.Sensors)
	d.batchDegrees = false
	if d.streamYield == nil {
		// One persistent closure: yield crosses the EdgeEmitter interface
		// boundary, where escape analysis would heap-allocate a fresh
		// closure per call; capturing only the receiver keeps the trial
		// loop at zero allocations.
		d.streamYield = func(u, v int32) bool {
			if d.sharesQ(u, v) {
				d.suf.Add(u, v)
			}
			return !d.suf.Done()
		}
	}
	if err := d.streamSecureEdges(r, d.streamYield); err != nil {
		return ConnStats{}, fmt.Errorf("wsn: deploy connectivity: %w", err)
	}
	return d.connStats(), nil
}

func (d *Deployer) connStats() ConnStats {
	return ConnStats{
		Connected:  d.suf.Connected(),
		Components: d.suf.Components(),
		Giant:      d.suf.GiantSize(),
		Isolated:   d.suf.IsolatedCount(),
	}
}

// DegreeStats extends ConnStats with the min-degree summary of one
// deployment's secure topology, as computed by the streaming degree mode.
type DegreeStats struct {
	ConnStats
	// K is the degree level the deployment was measured against.
	K int
	// MinDegreeAtLeastK reports whether every sensor has secure degree ≥ K
	// — the min-degree half of the paper's zero–one law (vacuously true for
	// n = 0 or K ≤ 0). Equals FullSecureTopology().MinDegree() >= K on a
	// fresh CSR deployment at the same seed.
	MinDegreeAtLeastK bool
	// MinDegree is the minimum secure degree TRUNCATED at K: exact whenever
	// it is below K, reported as K otherwise. The truncation makes the
	// value independent of whether the early exit fired mid-stream; it
	// equals min(K, true min degree) bit for bit against the CSR path.
	MinDegree int
	// BelowK is the number of sensors with secure degree < K (0 whenever
	// MinDegreeAtLeastK).
	BelowK int
}

// DeployDegreeStats runs a deployment in streaming degree mode from the
// given seed: like DeployConnectivity, the channel draw streams edge by
// edge through the shared-key test, but the secure edges feed a per-node
// degree accumulator BESIDE the union-find in the same pass. It answers the
// paper's min-degree figures — P[min degree ≥ k] and its coupling with
// k-connectivity — with O(n + ΣK) memory and no CSR graph at any n. The
// emitter is stopped once both sinks are done — one component remains AND
// every sensor has reached degree k — at that edge on the row index, and at
// the end of that batch on the Intersector.
//
// The same determinism contract as DeployConnectivity applies; all reported
// statistics are order-independent functions of the secure edge set (which
// is why MinDegree truncates at K — past the early exit only "≥ K" is
// knowable). The channel emitter must yield each pair at most once, which
// every built-in model guarantees; degree counting is not idempotent.
func (d *Deployer) DeployDegreeStats(seed uint64, k int) (DegreeStats, error) {
	d.rand.Reseed(seed)
	return d.deployDegreeStats(&d.rand, k)
}

// DeployDegreeStatsRand is DeployDegreeStats drawing all randomness from r
// — the entry point for Monte Carlo trials handed a per-trial stream.
func (d *Deployer) DeployDegreeStatsRand(r *rng.Rand, k int) (DegreeStats, error) {
	return d.deployDegreeStats(r, k)
}

func (d *Deployer) deployDegreeStats(r *rng.Rand, k int) (DegreeStats, error) {
	if k < 0 {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: negative degree level %d", k)
	}
	n := d.cfg.Sensors
	d.suf.Reset(n)
	d.sd.Reset(n, k)
	d.batchDegrees = true
	if d.degYield == nil {
		// Persistent for the same reason as streamYield; one closure serves
		// every k because the accumulator holds the current target.
		d.degYield = func(u, v int32) bool {
			if d.sharesQ(u, v) {
				d.suf.Add(u, v)
				d.sd.Add(u, v)
			}
			return !(d.suf.Done() && d.sd.AllAtLeastK())
		}
	}
	if err := d.streamSecureEdges(r, d.degYield); err != nil {
		return DegreeStats{}, fmt.Errorf("wsn: deploy degree stats: %w", err)
	}
	minDeg := d.sd.MinDegree()
	if minDeg > k {
		minDeg = k
	}
	return DegreeStats{
		ConnStats:         d.connStats(),
		K:                 k,
		MinDegreeAtLeastK: d.sd.AllAtLeastK(),
		MinDegree:         minDeg,
		BelowK:            d.sd.BelowK(),
	}, nil
}

// streamSecureEdges is the shared core of the graph-free deployment modes:
// key predistribution, the shared-key test's setup, and the channel draw
// streamed edge by edge. On the row index each edge goes to rowYield (which
// filters by sharesQ and feeds whatever sinks the mode maintains); on the
// Intersector to pushPair, whose flush feeds the sinks batchDegrees
// selects. The caller resets its sinks first; the early-exit verdict stops
// the emitter.
func (d *Deployer) streamSecureEdges(r *rng.Rand, rowYield func(u, v int32) bool) error {
	n := d.cfg.Sensors

	// 1. Key predistribution, identical to deploy: same arena, same draws.
	var asg keys.Assignment
	var err error
	if aa, ok := d.cfg.Scheme.(keys.ArenaAssigner); ok {
		asg, err = aa.AssignInto(r, n, &d.arena)
	} else {
		asg, err = d.cfg.Scheme.Assign(r, n)
	}
	if err != nil {
		return err
	}

	// 2. The shared-key test, exact whichever strategy it picks.
	if err := d.resetSharesQ(asg.Rings); err != nil {
		return err
	}
	yield := rowYield
	if !d.rowIndex {
		if d.batchYield == nil {
			// Persistent for the same reason as streamYield.
			d.batchYield = d.pushPair
		}
		yield = d.batchYield
	}

	// 3. Stream the channel draw into the sinks. Class-aware models take
	// priority exactly as in deploy, so a model that is class-aware AND a
	// plain emitter streams with the deployment's labels, never without
	// them. Models with no streaming support fall back to a sampled channel
	// graph walked edge by edge — the secure side still never materializes.
	if cem, ok := d.cfg.Channel.(channel.ClassEdgeEmitter); ok {
		err = cem.EmitClassEdges(r, n, asg.Labels, yield)
	} else if cm, ok := d.cfg.Channel.(channel.ClassModel); ok {
		var g *graph.Undirected
		if bcm, ok := d.cfg.Channel.(channel.BufferedClassModel); ok {
			g, err = bcm.SampleClassesInto(r, n, asg.Labels, d.chanBld)
		} else {
			g, err = cm.SampleClasses(r, n, asg.Labels)
		}
		if err == nil {
			g.ForEachEdge(yield)
		}
	} else if em, ok := d.cfg.Channel.(channel.EdgeEmitter); ok {
		err = em.EmitEdges(r, n, yield)
	} else {
		var g *graph.Undirected
		if bm, ok := d.cfg.Channel.(channel.BufferedModel); ok {
			g, err = bm.SampleInto(r, n, d.chanBld)
		} else {
			g, err = d.cfg.Channel.Sample(r, n)
		}
		if err == nil {
			g.ForEachEdge(yield)
		}
	}
	// Test the last, partial batch (a no-op after an early exit, which
	// flushed it). The early exit can stop mid-row; clearing the counted row
	// keeps rowCnt all-zero between deployments, as countPairsByRow expects.
	if !d.rowIndex {
		d.flush()
	}
	d.clearRow()
	return err
}

// streamBatch is how many emitted pairs the Intersector path buffers before
// testing them in one flush. At n = 10⁶ every pair's ring row and
// union-find slots are cache misses; a batch lets them overlap. It is small
// enough that the pairs drawn past the early exit stay a negligible share
// of a trial.
const streamBatch = 256

// pushPair is the Intersector path's yield: it buffers the pair and flushes
// a full batch, reporting whether the stream should go on.
func (d *Deployer) pushPair(u, v int32) bool {
	d.batch[d.batched] = [2]int32{u, v}
	d.batched++
	if d.batched < streamBatch {
		return true
	}
	return d.flush()
}

// flush tests the buffered pairs with FilterAtLeast, pushes the accepted
// ones into the union-find (and, in degree mode, the degree accumulator),
// empties the batch and reports whether the verdict is still open. The
// union-find stops at the edge that connects the network, after which its
// statistics are final; the degree accumulator takes every accepted pair,
// and its reported statistics are final once every sensor has degree k. So
// the pairs tested past the deciding one change no reported value.
func (d *Deployer) flush() bool {
	batch := d.batch[:d.batched]
	keep := d.ix.FilterAtLeast(batch, d.streamQ, d.keep[:0])
	d.suf.AddBatch(batch, keep)
	more := !d.suf.Done()
	if d.batchDegrees {
		for _, i := range keep {
			e := batch[i]
			d.sd.Add(e[0], e[1])
		}
		more = more || !d.sd.AllAtLeastK()
	}
	d.batched = 0
	return more
}

// resetSharesQ readies sharesQ for one deployment's rings: it picks the
// strategy and builds only that one's state — the key→holders index behind
// the per-row counter, or the keys.Intersector the per-edge CSR strategy
// uses.
func (d *Deployer) resetSharesQ(rings []keys.Ring) error {
	d.streamQ = d.cfg.Scheme.RequiredOverlap()
	d.rowIndex = d.useRowIndex(totalKeys(rings))
	if d.rowIndex {
		if n := d.cfg.Sensors; cap(d.rowCnt) < n {
			d.rowCnt = make([]uint8, n)
		}
		d.rowRings = rings
		d.row = -1
		return d.buildKeyIndex(rings, d.cfg.Scheme.PoolSize())
	}
	if d.ix == nil {
		ix, err := keys.NewIntersector(d.cfg.Scheme.PoolSize())
		if err != nil {
			return err
		}
		d.ix = ix
	}
	return d.ix.Reset(rings)
}

// useRowIndex selects the streaming shared-key strategy with indexCheaper,
// charged with the channel's expected pair count: p·C(n,2) for OnOff and
// C(n,2) for AlwaysOn. Other models keep the Intersector.
func (d *Deployer) useRowIndex(totalKeys int) bool {
	n := float64(d.cfg.Sensors)
	pairs := n * (n - 1) / 2
	switch ch := d.cfg.Channel.(type) {
	case channel.OnOff:
		pairs *= ch.P
	case channel.AlwaysOn:
	default:
		return false
	}
	return d.indexCheaper(totalKeys, pairs)
}

// sharesQ reports whether sensors u and v share at least q keys — exactly
// Intersector.HasAtLeast — on the row index, answering from rowCnt and
// recounting when u differs from the counted row. The built-in emitters
// walk pairs row by row, so each row is counted once and rows past the
// early exit are never counted; any other order stays exact, only slower.
func (d *Deployer) sharesQ(u, v int32) bool {
	if u != d.row {
		d.countRow(u)
	}
	return int(d.rowCnt[v]) >= d.streamQ
}

// countRow sets rowCnt[w] = |ring(u) ∩ ring(w)| for every sensor w
// (saturating at maxCountedOverlap) by walking the holders of u's keys:
// about K·ΣK/P increments instead of one ring merge per pair. u counts
// itself, so a (u, u) query answers |ring(u)| ≥ q as HasAtLeast does.
func (d *Deployer) countRow(u int32) {
	d.clearRow()
	d.row = u
	rowCnt := d.rowCnt
	d.rowRings[u].ForEachID(func(k keys.ID) bool {
		for _, w := range d.holders[d.keyOff[k]:d.keyOff[k+1]] {
			if rowCnt[w] == 0 {
				d.rowTouched = append(d.rowTouched, w)
			}
			if rowCnt[w] < maxCountedOverlap {
				rowCnt[w]++
			}
		}
		return true
	})
}

// clearRow zeroes the counted row and forgets it.
func (d *Deployer) clearRow() {
	for _, w := range d.rowTouched {
		d.rowCnt[w] = 0
	}
	d.rowTouched = d.rowTouched[:0]
	d.row = -1
}
