package randgraph

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/rng"
)

// GeometricOptions configures random geometric graph sampling (the disk
// model of the paper's Section IX).
type GeometricOptions struct {
	// Torus, when true, wraps distances around the unit square, removing
	// boundary effects; the induced edge probability between any two nodes
	// is then exactly π·r² (for r ≤ 1/2), which is how disk-model
	// experiments are matched against on/off channels with p = π·r².
	Torus bool
}

// geometricPoint is a sampled node position in the unit square.
type geometricPoint struct {
	X, Y float64
}

// GeoScratch holds the reusable buffers of geometric sampling: node
// positions and the flat cell grid. A zero GeoScratch is ready to use;
// buffers grow on first use and are reused afterwards, so repeated draws
// through one scratch allocate nothing in steady state. Not safe for
// concurrent use.
type GeoScratch struct {
	pts       []geometricPoint
	uni       []float64 // batched position uniforms, 2 per node
	cellOf    []int32   // cell index per node
	cellStart []int32   // CSR offsets into cellItems, one per cell (+1)
	cellItems []int32   // node ids grouped by cell, ascending within a cell
}

// EmitGeometric streams one random geometric graph draw edge by edge: n
// nodes uniform on the unit square, an edge wherever the (optionally
// toroidal) Euclidean distance is at most radius; a cell grid makes the
// expected cost O(n + m). All n positions are drawn up front in one batched FillFloat64
// (randomness is consumed exactly as the per-coordinate draws were — X then
// Y per node in index order; the cell-grid walk itself spends no
// randomness), then the
// 3×3 neighborhood walk passes each in-range pair directly to yield until
// it returns false. Every pair is yielded at most once: on tiny toroidal
// grids, where wraparound aliases neighbor cells, the walk deduplicates the
// candidate cells, so degree-counting sinks can consume the stream as-is.
func (sc *GeoScratch) EmitGeometric(r *rng.Rand, n int, radius float64, opts GeometricOptions, yield func(u, v int32) bool) error {
	if n < 0 {
		return fmt.Errorf("randgraph: negative node count %d", n)
	}
	if radius < 0 {
		return fmt.Errorf("randgraph: negative radius %v", radius)
	}
	if cap(sc.pts) < n {
		sc.pts = make([]geometricPoint, n)
	}
	sc.pts = sc.pts[:n]
	if cap(sc.uni) < 2*n {
		sc.uni = make([]float64, 2*n)
	}
	sc.uni = sc.uni[:2*n]
	r.FillFloat64(sc.uni)
	for i := range sc.pts {
		sc.pts[i] = geometricPoint{X: sc.uni[2*i], Y: sc.uni[2*i+1]}
	}
	pts := sc.pts
	r2 := radius * radius

	// Grid of cells with side ≥ radius: only neighbors in the 3×3 block can
	// be within range. Cap the grid so tiny radii don't allocate wildly.
	cells := 1
	if radius > 0 {
		cells = int(1 / radius)
		if cells < 1 {
			cells = 1
		}
		if cells > 1+n {
			cells = 1 + n
		}
	}
	cellOf := func(p geometricPoint) (int, int) {
		cx := int(p.X * float64(cells))
		cy := int(p.Y * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	// Bucket nodes by cell with a counting sort over the flat grid: ascending
	// node order within each cell, no per-cell slice headers. After the fill
	// pass cellStart[c] has advanced to the end of cell c; the rewind shift
	// restores start-of-cell semantics (cell c = items[cellStart[c]:
	// cellStart[c+1]]).
	nCells := cells * cells
	sc.cellOf = growInt32(sc.cellOf, n)
	sc.cellStart = growInt32(sc.cellStart, nCells+1)
	sc.cellItems = growInt32(sc.cellItems, n)
	for c := 0; c <= nCells; c++ {
		sc.cellStart[c] = 0
	}
	for i, p := range pts {
		cx, cy := cellOf(p)
		c := int32(cy*cells + cx)
		sc.cellOf[i] = c
		sc.cellStart[c]++
	}
	acc := int32(0)
	for c := 0; c < nCells; c++ {
		acc, sc.cellStart[c] = acc+sc.cellStart[c], acc
	}
	for i := 0; i < n; i++ {
		c := sc.cellOf[i]
		sc.cellItems[sc.cellStart[c]] = int32(i)
		sc.cellStart[c]++
	}
	for c := nCells; c > 0; c-- {
		sc.cellStart[c] = sc.cellStart[c-1]
	}
	sc.cellStart[0] = 0

	dist2 := func(a, b geometricPoint) float64 {
		dx := math.Abs(a.X - b.X)
		dy := math.Abs(a.Y - b.Y)
		if opts.Torus {
			if dx > 0.5 {
				dx = 1 - dx
			}
			if dy > 0.5 {
				dy = 1 - dy
			}
		}
		return dx*dx + dy*dy
	}
	// Grids of side ≥ 3 visit 9 distinct cells per node; smaller toroidal
	// grids alias neighbor cells under wraparound, so the walk tracks the
	// (at most 9) cells already visited to keep every candidate pair unique.
	dedupCells := opts.Torus && cells < 3
	var seen [9]int32
	for i := 0; i < n; i++ {
		p := pts[i]
		cx, cy := cellOf(p)
		nSeen := 0
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if opts.Torus {
					nx = ((nx % cells) + cells) % cells
					ny = ((ny % cells) + cells) % cells
				} else if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				c := ny*cells + nx
				if dedupCells {
					dup := false
					for _, s := range seen[:nSeen] {
						if s == int32(c) {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					seen[nSeen] = int32(c)
					nSeen++
				}
				for _, j := range sc.cellItems[sc.cellStart[c]:sc.cellStart[c+1]] {
					if int(j) <= i {
						continue
					}
					if dist2(p, pts[j]) <= r2 {
						if !yield(int32(i), j) {
							return nil
						}
					}
				}
			}
		}
	}
	return nil
}

// growInt32 resizes buf to n entries (contents unspecified) reusing its
// capacity.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
