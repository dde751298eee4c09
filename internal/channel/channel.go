// Package channel implements the physical-link constraint models under which
// a secure WSN operates. The paper's model is the on/off channel: every
// node-to-node channel is independently on with probability p (an
// Erdős–Rényi graph on the sensors, Section II). Full visibility (always-on
// channels) and the disk model (random geometric graph, Section IX) are
// provided for the baseline and extension experiments. Every model streams
// its draw pair by pair (Model.EmitEdges); no model materializes a graph, so
// a consumer holds only what it keeps of the pairs.
package channel

import (
	"fmt"
	"math"
	"sync"

	"github.com/secure-wsn/qcomposite/internal/randgraph"
	"github.com/secure-wsn/qcomposite/internal/rng"
	"github.com/secure-wsn/qcomposite/internal/theory"
)

// Model draws which node pairs have usable communication channels.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Validate reports whether the model's parameters are well-formed. It is
	// checked eagerly at construction time (wsn.NewDeployer, wsn.Deploy) so
	// misconfigurations surface before any sampling work.
	Validate() error
	// EmitEdges streams one channel draw on n nodes to yield, pair by pair,
	// deterministically in r. Every built-in model yields each pair at most
	// once, which wsn.Deployer's degree counts depend on; a third-party
	// model must be duplicate-free too. When yield returns false the draw
	// stops immediately and the rest of its randomness is NOT consumed:
	// callers must only early-exit streams nothing else draws from
	// (per-trial streams qualify). wsn.Deployer's graph-free modes stop
	// once their verdict is final — at the deciding pair on the row-indexed
	// shared-key test, at the end of the batch of pairs holding it on the
	// Intersector — so a stream may be drawn up to one batch past that
	// pair. A full deployment drains every draw.
	EmitEdges(r *rng.Rand, n int, yield func(u, v int32) bool) error
}

// OnOff is the paper's on/off channel model: each channel is independently
// on with probability P (0 ≤ P ≤ 1). P = 0 is the degenerate all-off network
// (an empty channel graph), the well-defined limit of a vanishing disk
// radius; P = 1 is full visibility.
type OnOff struct {
	// P is the probability that a channel is on.
	P float64
}

var _ Model = OnOff{}

// Name implements Model.
func (m OnOff) Name() string { return fmt.Sprintf("on-off(p=%g)", m.P) }

// Validate implements Model: P must lie in [0, 1].
func (m OnOff) Validate() error {
	if math.IsNaN(m.P) || m.P < 0 || m.P > 1 {
		return fmt.Errorf("channel: on probability %v outside [0,1]", m.P)
	}
	return nil
}

// EmitEdges implements Model: one G(n, p) draw streamed with geometric
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

// AlwaysOn is the full-visibility model: every pair of sensors has an active
// channel, so secure connectivity reduces to the key graph alone (the
// setting of the prior work the paper extends).
type AlwaysOn struct{}

var _ Model = AlwaysOn{}

// Name implements Model.
func (AlwaysOn) Name() string { return "always-on" }

// Validate implements Model: AlwaysOn has no parameters.
func (AlwaysOn) Validate() error { return nil }

// EmitEdges implements Model: every pair, no randomness.
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

// Disk is the disk model: sensors are placed uniformly at random on the unit
// square and can communicate within Euclidean distance Radius. With Torus
// set, distances wrap (no boundary effects) and the marginal channel-on
// probability of any pair is exactly π·Radius² for Radius ≤ ½ — the knob
// used to compare the disk model against on/off channels (experiment E8).
type Disk struct {
	// Radius is the communication range in [0, ∞).
	Radius float64
	// Torus selects wraparound distances.
	Torus bool
}

var _ Model = Disk{}

// Name implements Model.
func (m Disk) Name() string {
	if m.Torus {
		return fmt.Sprintf("disk-torus(r=%g)", m.Radius)
	}
	return fmt.Sprintf("disk(r=%g)", m.Radius)
}

// Validate implements Model: Radius must be finite and non-negative. A zero
// radius is well-defined (no sensor reaches any other: an empty channel
// graph), matching the P = 0 limit of EquivalentOnOff.
func (m Disk) Validate() error {
	if math.IsNaN(m.Radius) || math.IsInf(m.Radius, 0) || m.Radius < 0 {
		return fmt.Errorf("channel: disk radius %v must be finite and non-negative", m.Radius)
	}
	return nil
}

// geoScratchPool shares geometric-sampling buffers (positions, cell grid)
// across Disk.EmitEdges calls. Disk is a value-type model, so its scratch
// cannot live on the model itself; a pool keeps steady-state sampling
// allocation-free without coupling the model to one deployer.
var geoScratchPool = sync.Pool{New: func() any { return new(randgraph.GeoScratch) }}

// EmitEdges implements Model: the cell-grid walk passes in-range pairs
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

// EquivalentOnOff returns the on/off model whose channel-on probability
// matches the disk model's marginal pair probability on the torus — π·r²
// for r ≤ ½, the exact clipped-ball area beyond (theory.DiskOnProb owns the
// formula) — the comparison device of experiment E8. A zero radius maps to
// OnOff{P: 0}, the (valid) empty channel graph, so the equivalence holds at
// the degenerate end of a radius sweep too; an invalid radius maps to an
// OnOff model that fails Validate, mirroring the Disk model itself.
func (m Disk) EquivalentOnOff() OnOff {
	p, err := theory.DiskOnProb(m.Radius)
	if err != nil {
		return OnOff{P: math.NaN()}
	}
	return OnOff{P: p}
}
