package main

import (
	"fmt"
	"time"

	"github.com/secure-wsn/qcomposite/internal/channel"
	"github.com/secure-wsn/qcomposite/internal/graphalgo"
	"github.com/secure-wsn/qcomposite/internal/keys"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// batchPairs is how many emitted channel pairs the traced trial buffers
// before timing one HasAtLeast span over them and one StreamUnionFind.Add
// span over the accepted ones: large enough that two clock reads per batch
// cost well under 1% of the batch, small enough that the pairs drawn past
// the early exit stay a negligible share of a trial.
const batchPairs = 4096

// layerTimes are the traced spans and counts of one or more composed
// trials. Self times: emitSelf is the EmitEdges span minus the batch spans
// that ran inside it.
type layerTimes struct {
	trials, denseTrials int

	assign, reset, ufReset, emitSelf, intersect, uf, total time.Duration

	keysAssigned, pairsEmitted, pairsTested, accepted int64
	adds, merges, consumed                            int64
	expected                                          float64
}

func (a *layerTimes) add(b layerTimes) {
	a.trials += b.trials
	a.denseTrials += b.denseTrials
	a.assign += b.assign
	a.reset += b.reset
	a.ufReset += b.ufReset
	a.emitSelf += b.emitSelf
	a.intersect += b.intersect
	a.uf += b.uf
	a.total += b.total
	a.keysAssigned += b.keysAssigned
	a.pairsEmitted += b.pairsEmitted
	a.pairsTested += b.pairsTested
	a.accepted += b.accepted
	a.adds += b.adds
	a.merges += b.merges
	a.consumed += b.consumed
	a.expected += b.expected
}

// selfSum is the summed self time of every traced span.
func (a *layerTimes) selfSum() time.Duration {
	return a.assign + a.reset + a.ufReset + a.emitSelf + a.intersect + a.uf
}

// composer is the traced streaming trial: wsn.Deployer.DeployConnectivity
// rebuilt from the public calls of each layer on the same rng.Rand stream —
// keys.QComposite.AssignInto, keys.Intersector.Reset, channel.OnOff.EmitEdges
// feeding keys.Intersector.HasAtLeast and graphalgo.StreamUnionFind.Add — so
// each layer's time can be taken from outside. It must reproduce the fused
// trial's ConnStats seed for seed; the benchmark checks that it does.
type composer struct {
	scheme *keys.QComposite
	ch     channel.OnOff
	n, q   int

	arena keys.RingArena
	ix    *keys.Intersector
	uf    graphalgo.StreamUnionFind

	batch [][2]int32
	acc   []int32
	yield func(u, v int32) bool
	done  bool
	lt    layerTimes
}

func newComposer(cfg wsn.Config) (*composer, error) {
	scheme, ok := cfg.Scheme.(*keys.QComposite)
	if !ok {
		return nil, fmt.Errorf("traced trial needs a q-composite scheme, got %T", cfg.Scheme)
	}
	ch, ok := cfg.Channel.(channel.OnOff)
	if !ok {
		return nil, fmt.Errorf("traced trial needs an on/off channel, got %T", cfg.Channel)
	}
	ix, err := keys.NewIntersector(scheme.PoolSize())
	if err != nil {
		return nil, err
	}
	c := &composer{
		scheme: scheme, ch: ch, n: cfg.Sensors, q: scheme.RequiredOverlap(), ix: ix,
		batch: make([][2]int32, 0, batchPairs),
		acc:   make([]int32, 0, batchPairs),
	}
	c.yield = func(u, v int32) bool {
		c.batch = append(c.batch, [2]int32{u, v})
		if len(c.batch) == batchPairs {
			c.flush()
		}
		return !c.done
	}
	return c, nil
}

// flush runs the buffered pairs through the intersector, then the accepted
// ones through the union-find, stopping at the pair that connects the
// network — the pair at which the fused trial's early exit fires.
func (c *composer) flush() {
	t0 := time.Now()
	acc := c.acc[:0]
	for i, e := range c.batch {
		if c.ix.HasAtLeast(e[0], e[1], c.q) {
			acc = append(acc, int32(i))
		}
	}
	t1 := time.Now()
	for _, i := range acc {
		e := c.batch[i]
		c.lt.adds++
		if c.uf.Add(e[0], e[1]) {
			c.lt.merges++
		}
		if c.uf.Done() {
			c.done = true
			c.lt.consumed = c.lt.pairsTested + int64(i) + 1
			break
		}
	}
	t2 := time.Now()
	c.lt.intersect += t1.Sub(t0)
	c.lt.uf += t2.Sub(t1)
	c.lt.pairsTested += int64(len(c.batch))
	c.lt.accepted += int64(len(acc))
	c.batch = c.batch[:0]
	c.acc = acc
}

// trial runs one composed deployment on r and returns its statistics and
// its spans.
func (c *composer) trial(r *rng.Rand) (wsn.ConnStats, layerTimes, error) {
	c.lt = layerTimes{trials: 1}
	c.batch = c.batch[:0]
	t0 := time.Now()
	asg, err := c.scheme.AssignInto(r, c.n, &c.arena)
	if err != nil {
		return wsn.ConnStats{}, c.lt, err
	}
	t1 := time.Now()
	if err := c.ix.Reset(asg.Rings); err != nil {
		return wsn.ConnStats{}, c.lt, err
	}
	t2 := time.Now()
	c.uf.Reset(c.n)
	c.done = c.uf.Done()
	t3 := time.Now()
	err = c.ch.EmitEdges(r, c.n, c.yield)
	t4 := time.Now()
	if err != nil {
		return wsn.ConnStats{}, c.lt, err
	}
	c.lt.pairsEmitted = c.lt.pairsTested + int64(len(c.batch))
	c.lt.emitSelf = t4.Sub(t3) - c.lt.intersect - c.lt.uf
	if !c.done && len(c.batch) > 0 {
		c.flush()
	}
	if !c.done {
		c.lt.consumed = c.lt.pairsEmitted
	}
	c.lt.total = time.Since(t0)
	c.lt.assign = t1.Sub(t0)
	c.lt.reset = t2.Sub(t1)
	c.lt.ufReset = t3.Sub(t2)
	c.lt.keysAssigned = int64(c.n) * int64(c.scheme.RingSize())
	if c.ix.Dense() {
		c.lt.denseTrials = 1
	}
	c.lt.expected = c.ch.P * float64(c.n) * float64(c.n-1) / 2
	return wsn.ConnStats{
		Connected:  c.uf.Connected(),
		Components: c.uf.Components(),
		Giant:      c.uf.GiantSize(),
		Isolated:   c.uf.IsolatedCount(),
	}, c.lt, nil
}

// setLayerMetrics reports the keys, channel and union-find layer metrics of
// the accumulated traced trials.
func setLayerMetrics(rep *report, lt layerTimes) {
	tr := float64(lt.trials)
	rep.set("keys.assign_s", ratio(lt.assign.Seconds(), tr))
	rep.set("keys.assign_ns_per_key", ratio(float64(lt.assign.Nanoseconds()), float64(lt.keysAssigned)))
	rep.set("keys.reset_s", ratio(lt.reset.Seconds(), tr))
	rep.set("keys.intersect_ns_per_pair", ratio(float64(lt.intersect.Nanoseconds()), float64(lt.pairsTested)))
	rep.set("keys.pairs_tested", float64(lt.pairsTested))
	rep.set("keys.accept_ratio", ratio(float64(lt.accepted), float64(lt.pairsTested)))
	rep.set("keys.dense_frac", ratio(float64(lt.denseTrials), tr))
	rep.set("channel.emit_ns_per_pair", ratio(float64(lt.emitSelf.Nanoseconds()), float64(lt.pairsEmitted)))
	rep.set("channel.consumed_frac", ratio(float64(lt.consumed), lt.expected))
	rep.set("graphalgo.uf_ns_per_edge", ratio(float64((lt.uf+lt.ufReset).Nanoseconds()), float64(lt.adds)))
	rep.set("graphalgo.merge_ratio", ratio(float64(lt.merges), float64(lt.adds)))
	rep.note("traced: %d trials, %d pairs emitted, %d tested, %d accepted, %d union-find adds (%d merges)",
		lt.trials, lt.pairsEmitted, lt.pairsTested, lt.accepted, lt.adds, lt.merges)
}
