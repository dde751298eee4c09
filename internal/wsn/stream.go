package wsn

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
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
	d.sink = sinkConnectivity
	if d.streamYield == nil {
		// One persistent closure: yield crosses the channel.Model interface
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
	if _, err := d.streamSecureEdges(r, d.streamYield); err != nil {
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
	d.sink = sinkDegrees
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
	if _, err := d.streamSecureEdges(r, d.degYield); err != nil {
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

// streamSecureEdges is the one edge pipeline of every deployment mode: key
// predistribution, the shared-key test's setup, and the channel draw
// streamed pair by pair. On the row index each pair goes to rowYield (which
// filters by sharesQ and feeds whatever sinks the mode maintains); on the
// Intersector to pushPair, whose flush feeds the sinks d.sink selects. When
// the channel turns every pair on without drawing (OnOff{P: 1}, AlwaysOn)
// the row index skips the channel walk: emitKeyFirst yields only the
// key-sharing pairs, row by row. The caller resets its sinks first; the
// early-exit verdict stops the emitter. It returns the assignment the pairs
// were tested against.
func (d *Deployer) streamSecureEdges(r *rng.Rand, rowYield func(u, v int32) bool) (keys.Assignment, error) {
	n := d.cfg.Sensors

	// 1. Key predistribution: per-sensor class labels and class-sized rings.
	// Schemes that support arena assignment write the rings into the
	// Deployer's arena; others allocate per deployment.
	var asg keys.Assignment
	var err error
	if aa, ok := d.cfg.Scheme.(keys.ArenaAssigner); ok {
		asg, err = aa.AssignInto(r, n, &d.arena)
	} else {
		asg, err = d.cfg.Scheme.Assign(r, n)
	}
	if err != nil {
		return asg, err
	}

	// 2. The shared-key test, exact whichever strategy it picks.
	if err := d.resetSharesQ(asg); err != nil {
		return asg, err
	}
	yield := rowYield
	if !d.rowIndex {
		if d.batchYield == nil {
			// Persistent for the same reason as streamYield.
			d.batchYield = d.pushPair
		}
		yield = d.batchYield
	}

	// 3. Stream the channel draw into the sinks. Class-aware models receive
	// the deployment's class labels, so the scheme and channel observe one
	// shared class assignment.
	if d.keyFirst {
		d.emitKeyFirst(yield)
	} else if cm, ok := d.cfg.Channel.(channel.ClassModel); ok {
		err = cm.EmitClassEdges(r, n, asg.Labels, yield)
	} else {
		err = d.cfg.Channel.EmitEdges(r, n, yield)
	}
	// Test the last, partial batch (a no-op after an early exit, which
	// flushed it). The early exit can stop mid-row; clearing the counted row
	// keeps rowCnt all-zero between deployments, as countRow expects.
	if !d.rowIndex {
		d.flush()
	}
	d.clearRow()
	return asg, err
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

// flush tests the buffered pairs with FilterAtLeast, feeds the accepted
// ones to the sinks d.sink selects, empties the batch and reports whether
// the verdict is still open. The union-find stops at the edge that connects
// the network, after which its statistics are final; the degree accumulator
// takes every accepted pair, and its reported statistics are final once
// every sensor has degree k. So the pairs tested past the deciding one
// change no reported value. The collect sink counts every pair's channel
// degrees and keeps the accepted pairs; it never stops the stream.
func (d *Deployer) flush() bool {
	batch := d.batch[:d.batched]
	keep := d.ix.FilterAtLeast(batch, d.streamQ, d.keep[:0])
	d.batched = 0
	switch d.sink {
	case sinkCollect:
		for _, e := range batch {
			d.chanDeg[e[0]]++
			d.chanDeg[e[1]]++
		}
		for _, i := range keep {
			e := batch[i]
			d.edges = append(d.edges, graph.Edge{U: e[0], V: e[1]})
		}
		return true
	case sinkDegrees:
		d.suf.AddBatch(batch, keep)
		for _, i := range keep {
			e := batch[i]
			d.sd.Add(e[0], e[1])
		}
		return !d.suf.Done() || !d.sd.AllAtLeastK()
	default:
		d.suf.AddBatch(batch, keep)
		return !d.suf.Done()
	}
}

// resetSharesQ readies sharesQ for one deployment's assignment: it picks
// the strategy and builds only that one's state — the key→holders index
// behind the per-row counter, or the keys.Intersector flush tests batches
// with — and whether the row index runs key-first.
func (d *Deployer) resetSharesQ(asg keys.Assignment) error {
	rings := asg.Rings
	d.streamQ = d.cfg.Scheme.RequiredOverlap()
	d.rowIndex = d.useRowIndex(totalKeys(rings), asg.Labels)
	d.keyFirst = d.rowIndex && allOn(d.cfg.Channel)
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

// allOn reports whether the channel model turns every pair on and draws no
// randomness doing so: its emitted stream is all C(n, 2) pairs in row order,
// whatever the generator.
func allOn(m channel.Model) bool {
	switch ch := m.(type) {
	case channel.OnOff:
		return ch.P == 1
	case channel.AlwaysOn:
		return true
	}
	return false
}

// emitKeyFirst stands in for the channel walk of an all-on channel (see
// allOn) on the row index. For u = 0 … n−1 it counts u's row and yields
// each w > u sharing at least q keys with u, until yield returns false:
// the pairs the walk would have passed through sharesQ, and only those, in
// the same rows — so every order-independent statistic, and the secure
// topology, is the walk's. Only the early-exit position moves. No
// randomness is drawn either way.
func (d *Deployer) emitKeyFirst(yield func(u, v int32) bool) {
	n := d.cfg.Sensors
	for u := int32(0); u < int32(n); u++ {
		d.countRow(u)
		for _, w := range d.rowTouched {
			if w > u && int(d.rowCnt[w]) >= d.streamQ && !yield(u, w) {
				return
			}
		}
	}
}

// useRowIndex selects the shared-key strategy with indexCheaper, charged
// with the channel's expected pair count: p·C(n,2) for OnOff, C(n,2) for
// AlwaysOn, C(n,2)·theory.DiskOnProb(r) for Disk, and Σ over class pairs of
// the block's pair count × P[i][j] for HeterOnOff, from the deployment's
// class labels. Those emitters walk pairs row by row (HeterOnOff within
// each class block), so the row index counts a row once, or at most once
// per block the row leads. Other models keep the Intersector.
func (d *Deployer) useRowIndex(totalKeys int, labels []uint8) bool {
	n := float64(d.cfg.Sensors)
	pairs := n * (n - 1) / 2
	switch ch := d.cfg.Channel.(type) {
	case channel.OnOff:
		pairs *= ch.P
	case channel.AlwaysOn:
	case channel.Disk:
		p, err := theory.DiskOnProb(ch.Radius)
		if err != nil {
			return false
		}
		pairs *= p
	case channel.HeterOnOff:
		pairs = heterPairs(ch, d.cfg.Sensors, labels)
	default:
		return false
	}
	return d.indexCheaper(totalKeys, pairs)
}

// heterPairs is the expected number of on channels of m on n sensors with
// the given class labels (nil: every sensor is class 0).
func heterPairs(m channel.HeterOnOff, n int, labels []uint8) float64 {
	var size [256]float64
	if labels == nil {
		size[0] = float64(n)
	} else {
		for _, c := range labels {
			size[c]++
		}
	}
	pairs := 0.0
	for i := range m.P {
		pairs += size[i] * (size[i] - 1) / 2 * m.P[i][i]
		for j := i + 1; j < len(m.P); j++ {
			pairs += size[i] * size[j] * m.P[i][j]
		}
	}
	return pairs
}

// sharesQ reports whether sensors u and v share at least q keys — exactly
// Intersector.HasAtLeast — on the row index, answering from rowCnt and
// recounting when u differs from the counted row. The built-in emitters
// walk pairs row by row, so each row is counted once and rows past the
// early exit are never counted; any other order stays exact, only slower.
// Key-first emission counts each row itself and yields only pairs (u, w)
// of that row, which sharesQ answers from the row just counted.
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
