// Package randgraph samples the random graph families the simulator and
// the paper's proofs are built from:
//
//   - Erdős–Rényi graphs G(n, p) — the on/off channel model (Section II) —
//     whole, over node subsets and between node blocks, streamed edge by
//     edge (ErdosRenyi also collects a whole draw into a graph);
//   - random geometric graphs (the disk model discussed in Section IX),
//     streamed edge by edge;
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

// ErdosRenyi samples G(n, p) as a one-shot graph: each of the C(n,2)
// possible edges is present independently with probability p. Pairs are
// enumerated in lexicographic order and skipped geometrically, so the cost
// is O(n + E[m]) rather than O(n²). AppendErdosRenyiStream is the
// allocation-free streaming form of the same draw.
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
	err := AppendErdosRenyiStream(r, n, p, func(u, v int32) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	})
	if err != nil {
		return nil, err
	}
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		return nil, fmt.Errorf("randgraph: erdős–rényi: %w", err)
	}
	return g, nil
}
