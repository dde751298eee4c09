package randgraph

import (
	"fmt"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// CoupledPair is the result of sampling a binomial and a uniform
// q-intersection graph on one probability space so that the binomial graph
// is a spanning subgraph of the uniform one — the monotone coupling behind
// the paper's Lemma 5.
type CoupledPair struct {
	// Uniform is G_q(n, K, P).
	Uniform *graph.Undirected
	// Binomial is H_q(n, x, P), built from sub-rings of Uniform's rings.
	Binomial *graph.Undirected
	// Coupled reports whether the coupling event held: every node's
	// Binomial(P, x) draw was at most K. When false, Binomial was clipped to
	// ring size K and the subgraph relation still holds, but the marginal
	// law of Binomial deviates from H_q(n, x, P). Lemma 5's conditions make
	// the event hold with probability 1 − o(1).
	Coupled bool
}

// SampleCoupled draws the Lemma 5 coupling of H_q(n, x, P) ⊑ G_q(n, K, P):
// each node draws a uniform K-subset of the pool, then m_v ~ Binomial(P, x);
// its binomial ring is a uniform m_v-subset of its uniform K-ring.
// Conditioned on m_v ≤ K for all v (the Coupled flag), both marginals are
// exact and the containment is pointwise.
func SampleCoupled(r *rng.Rand, n, ring, pool, q int, x float64) (*CoupledPair, error) {
	switch {
	case x < 0 || x > 1:
		return nil, fmt.Errorf("randgraph: coupling inclusion probability %v outside [0,1]", x)
	case n < 0:
		return nil, fmt.Errorf("randgraph: coupled sample: negative node count %d", n)
	case q < 1:
		return nil, fmt.Errorf("randgraph: coupled sample: key overlap requirement q=%d must be ≥ 1", q)
	case ring < q:
		return nil, fmt.Errorf("randgraph: coupled sample: ring size %d below overlap requirement q=%d", ring, q)
	case pool < ring:
		return nil, fmt.Errorf("randgraph: coupled sample: pool size %d below ring size %d", pool, ring)
	}
	subset, err := rng.NewSubsetSampler(pool)
	if err != nil {
		return nil, fmt.Errorf("randgraph: coupled sample: %w", err)
	}
	flat := make([]int32, 0, n*ring)
	for v := 0; v < n; v++ {
		if flat, err = subset.AppendSample(r, ring, flat); err != nil {
			return nil, fmt.Errorf("randgraph: key assignment: %w", err)
		}
	}
	rings := make([][]int32, n)
	for v := range rings {
		rings[v] = flat[v*ring : (v+1)*ring]
	}
	uniform, err := qIntersectFromRings(n, pool, q, rings)
	if err != nil {
		return nil, err
	}
	coupled := true
	subRings := make([][]int32, n)
	for v := 0; v < n; v++ {
		m := r.Binomial(pool, x)
		if m > ring {
			m = ring
			coupled = false
		}
		// A uniform m-subset of the node's uniform K-ring is a uniform
		// m-subset of the pool: partial Fisher–Yates over a copy.
		cp := append([]int32(nil), rings[v]...)
		for i := 0; i < m; i++ {
			j := i + r.Intn(len(cp)-i)
			cp[i], cp[j] = cp[j], cp[i]
		}
		subRings[v] = cp[:m]
	}
	binomial, err := qIntersectFromRings(n, pool, q, subRings)
	if err != nil {
		return nil, err
	}
	return &CoupledPair{Uniform: uniform, Binomial: binomial, Coupled: coupled}, nil
}

// qIntersectFromRings builds the ≥q-shared-keys graph from explicit rings
// using the inverted-index counting strategy with a sparse map counter.
func qIntersectFromRings(n, pool, q int, rings [][]int32) (*graph.Undirected, error) {
	holders := make([][]int32, pool)
	for v, ring := range rings {
		for _, k := range ring {
			holders[k] = append(holders[k], int32(v))
		}
	}
	counts := make(map[int64]uint8)
	for _, hs := range holders {
		for i := 0; i < len(hs); i++ {
			ui := int64(hs[i]) * int64(n)
			for j := i + 1; j < len(hs); j++ {
				key := ui + int64(hs[j])
				if c := counts[key]; c < 255 {
					counts[key] = c + 1
				}
			}
		}
	}
	q8 := uint8(q)
	if q > 255 {
		q8 = 255
	}
	var edges []graph.Edge
	for key, cnt := range counts {
		if cnt >= q8 {
			edges = append(edges, graph.Edge{
				U: int32(key / int64(n)),
				V: int32(key % int64(n)),
			})
		}
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: q-intersection from rings: %w", err)
	}
	return g, nil
}
