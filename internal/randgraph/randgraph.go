// Package randgraph samples the random graph families the simulator and
// the paper's proofs are built from:
//
//   - Erdős–Rényi graphs G(n, p) — the on/off channel model (Section II) —
//     whole, over node subsets and between node blocks, appended or
//     streamed edge by edge;
//   - random geometric graphs (the disk model discussed in Section IX);
//   - the Lemma 5 coupling of a binomial q-intersection graph H_q(n, x, P)
//     inside a uniform one G_q(n, K, P) (SampleCoupled).
//
// The composite WSN topology G_{n,q}(n,K,P,p) = G_q(n,K,P) ∩ G(n,p) itself
// is deployed by package wsn. Samplers take explicit *rng.Rand generators
// and are deterministic given the generator state.
package randgraph

import (
	"fmt"
	"math"

	"github.com/secure-wsn/qcomposite/internal/graph"
	"github.com/secure-wsn/qcomposite/internal/rng"
)

// AppendErdosRenyi appends the edges of one G(n, p) draw to dst and returns
// the extended slice: each of the C(n,2) possible edges is present
// independently with probability p. Pairs are enumerated in lexicographic
// order and skipped geometrically, so the cost is O(n + E[m]) rather than
// O(n²). Pass a reused buffer (e.g. a graph.Builder's EdgeScratch) to keep
// Monte Carlo loops allocation-free; the draw consumes randomness exactly as
// ErdosRenyi does. It is the appending form of AppendErdosRenyiStream.
func AppendErdosRenyi(r *rng.Rand, n int, p float64, dst []graph.Edge) ([]graph.Edge, error) {
	err := AppendErdosRenyiStream(r, n, p, func(u, v int32) bool {
		dst = append(dst, graph.Edge{U: u, V: v})
		return true
	})
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// ErdosRenyi samples G(n, p) as a one-shot graph; see AppendErdosRenyi for
// the buffer-reusing form.
func ErdosRenyi(r *rng.Rand, n int, p float64) (*graph.Undirected, error) {
	if n < 0 {
		return nil, fmt.Errorf("randgraph: negative node count %d", n)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("randgraph: edge probability %v outside [0,1]", p)
	}
	var edges []graph.Edge
	if p > 0 && n > 1 {
		expected := p * float64(n) * float64(n-1) / 2
		edges = make([]graph.Edge, 0, int(expected)+16)
	}
	edges, err := AppendErdosRenyi(r, n, p, edges)
	if err != nil {
		return nil, err
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: erdős–rényi: %w", err)
	}
	return g, nil
}
