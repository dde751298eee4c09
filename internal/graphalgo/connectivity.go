package graphalgo

import "github.com/secure-wsn/qcomposite/internal/graph"

// IsKConnected reports whether g is k-connected, i.e. whether its vertex
// connectivity κ(g) is at least k. Conventions: every graph is 0-connected;
// κ(K_n) = n−1, so a graph on n ≤ k nodes is never k-connected.
//
// Fast paths handle k = 1 (union-find) and k = 2 (articulation points).
// General k uses Even's algorithm: fix W = {v_0, …, v_{k−1}};
//
//  1. for every non-adjacent pair in W, verify k internally vertex-disjoint
//     paths (Menger via unit-capacity max-flow on the vertex-split digraph);
//  2. for every u ∉ W, verify k vertex-disjoint paths from u to an auxiliary
//     node x adjacent to all of W.
//
// If κ(g) < k some separator S with |S| < k splits g; either two W-nodes
// fall on opposite sides (caught by step 1) or all W-nodes outside S sit in
// one side and any u in another side is separated from x by S (caught by
// step 2). Each flow is capped at k, so a query costs at most
// (C(k,2)+n)·k·O(m).
//
// See IsKConnectedW for the scratch-reusing form.
func IsKConnected(g *graph.Undirected, k int) bool {
	return IsKConnectedW(nil, g, k)
}

// VertexConnectivity returns κ(g) exactly: the minimum number of node
// removals that disconnect g (n−1 for the complete graph K_n, 0 for
// disconnected or trivial graphs).
func VertexConnectivity(g *graph.Undirected) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if n == 1 {
		return 0
	}
	// κ is bounded by the minimum degree; binary search the monotone
	// predicate IsKConnected over [0, minDeg+1).
	lo, hi := 0, g.MinDegree()+1 // invariant: IsKConnected(lo), !IsKConnected(hi)
	if !IsKConnected(g, 1) {
		return 0
	}
	if n-1 <= hi && IsKConnected(g, n-1) {
		return n - 1 // complete graph fast path
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if IsKConnected(g, mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
