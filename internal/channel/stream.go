package channel

import (
	"fmt"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// EdgeEmitter is the streaming extension of Model: EmitEdges pushes one
// channel draw edge by edge to yield instead of materializing a graph. It
// must consume randomness exactly as Sample does, so at a fixed generator
// state the yielded edge set equals the sampled graph's edge set. Every
// built-in emitter yields each pair at most once, which the streaming
// degree accumulator depends on; third-party emitters feeding
// wsn.Deployer's degree mode must be duplicate-free too (a pure union-find
// sink would tolerate duplicates, a degree count does not). When yield
// returns false the draw stops immediately and the rest of its randomness
// is NOT consumed; callers must only early-exit streams nothing else draws
// from (per-trial streams qualify). wsn.Deployer's graph-free modes use
// EmitEdges when the configured model provides it; they return false once
// their verdict is final — at the deciding pair on the row-indexed
// shared-key test, at the end of the batch of pairs holding it on the
// Intersector — so a stream may be drawn up to one batch past that pair.
type EdgeEmitter interface {
	Model
	// EmitEdges streams the channel draw on n nodes to yield.
	EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error
}

// ClassEdgeEmitter is the class-aware analogue of EdgeEmitter:
// EmitClassEdges must match SampleClasses draw for draw.
type ClassEdgeEmitter interface {
	ClassModel
	// EmitClassEdges streams the channel draw on n labelled nodes to yield.
	EmitClassEdges(r *rng.Rand, n int, labels []uint8, yield func(u, v int32) bool) error
}

var (
	_ EdgeEmitter      = OnOff{}
	_ EdgeEmitter      = AlwaysOn{}
	_ EdgeEmitter      = Disk{}
	_ EdgeEmitter      = HeterOnOff{}
	_ ClassEdgeEmitter = HeterOnOff{}
)

// EmitEdges implements EdgeEmitter: one G(n, p) draw streamed with geometric
// skipping.
func (m OnOff) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := randgraph.AppendErdosRenyiStream(r, n, m.P, yield); err != nil {
		return fmt.Errorf("channel: on/off: %w", err)
	}
	return nil
}

// EmitEdges implements EdgeEmitter: every pair, no randomness.
func (AlwaysOn) EmitEdges(_ *rng.Rand, n int, yield func(u, v int32) bool) error {
	if n < 0 {
		return fmt.Errorf("channel: always-on: negative node count %d", n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !yield(int32(u), int32(v)) {
				return nil
			}
		}
	}
	return nil
}

// EmitEdges implements EdgeEmitter: the cell-grid walk passes in-range pairs
// straight to yield, with pooled position/grid buffers and no edge list.
func (m Disk) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	sc := geoScratchPool.Get().(*randgraph.GeoScratch)
	defer geoScratchPool.Put(sc)
	if err := sc.EmitGeometric(r, n, m.Radius, randgraph.GeometricOptions{Torus: m.Torus}, yield); err != nil {
		return fmt.Errorf("channel: disk: %w", err)
	}
	return nil
}

// EmitEdges implements EdgeEmitter with the same single-class restriction as
// Sample.
func (m HeterOnOff) EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if len(m.P) > 1 {
		return fmt.Errorf("channel: heterogeneous on/off with %d classes needs per-sensor labels; deploy it with a class-aware scheme", len(m.P))
	}
	return OnOff{P: m.P[0][0]}.EmitEdges(r, n, yield)
}

// classScratchPool shares the class-bucketing array across EmitClassEdges
// calls; HeterOnOff is a value-type model, so like Disk's geometry scratch
// the buffer lives in a pool rather than on the model.
var classScratchPool = sync.Pool{New: func() any { return new([]int32) }}

// EmitClassEdges implements ClassEdgeEmitter: the per-class-pair Erdős–Rényi
// blocks are streamed in the same fixed (i ≤ j) order as SampleClasses,
// through ONE skip kernel threaded across all blocks — block boundaries
// share buffered uniforms exactly as SampleClasses does, so randomness is
// consumed draw for draw. A false from yield stops the current block and
// skips all remaining blocks.
func (m HeterOnOff) EmitClassEdges(r *rng.Rand, n int, labels []uint8, yield func(u, v int32) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("channel: negative node count %d", n)
	}
	if labels != nil && len(labels) != n {
		return fmt.Errorf("channel: %d class labels for %d nodes", len(labels), n)
	}
	classes := len(m.P)
	buf := classScratchPool.Get().(*[]int32)
	defer classScratchPool.Put(buf)
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	flat := (*buf)[:n]
	var off [257]int32
	if err := bucketByClass(n, classes, labels, flat, &off); err != nil {
		return err
	}
	bucket := func(c int) []int32 { return flat[off[c]:off[c+1]] }
	stopped := false
	wrap := func(u, v int32) bool {
		if !yield(u, v) {
			stopped = true
			return false
		}
		return true
	}
	var src rng.GeometricSource
	src.Reset(r)
	for i := 0; i < classes && !stopped; i++ {
		if err := randgraph.EmitErdosRenyiSubset(&src, bucket(i), m.P[i][i], wrap); err != nil {
			return fmt.Errorf("channel: heterogeneous on/off: %w", err)
		}
		for j := i + 1; j < classes && !stopped; j++ {
			if err := randgraph.EmitErdosRenyiBipartite(&src, bucket(i), bucket(j), m.P[i][j], wrap); err != nil {
				return fmt.Errorf("channel: heterogeneous on/off: %w", err)
			}
		}
	}
	return nil
}
