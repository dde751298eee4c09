package graph

import (
	"fmt"
	"slices"
)

// Builder constructs CSR graphs from edge lists with reusable scratch, so a
// Monte Carlo loop that samples a fresh topology every trial approaches zero
// steady-state allocation. The builder owns the degree/cursor scratch and a
// double-buffered arena of CSR storage (offsets, adjacency, and the
// Undirected header itself): a graph returned by FromEdges stays valid
// through the next build and is invalidated by the second-next one — the same
// lifetime contract wsn.Deployer.Deploy imposes on the networks it returns.
// A Builder is not safe for concurrent use.
type Builder struct {
	deg    []int32
	cursor []int32

	arenas [2]builderArena
	next   int // arena index the next build writes into
}

// builderArena is one of the builder's two CSR buffers. The Undirected
// header lives in the arena too, so repeated builds do not even allocate the
// graph struct.
type builderArena struct {
	off []int32
	adj []int32
	g   Undirected
}

// NewBuilder returns an empty Builder; buffers grow on demand and are then
// reused.
func NewBuilder() *Builder { return &Builder{} }

// FromEdges builds a graph on n nodes from the given edge list, with
// NewFromEdges semantics: endpoints must lie in [0, n), self-loops are
// rejected, duplicate edges (in either orientation) are merged. The returned
// graph aliases builder storage: it remains valid until the second-next
// FromEdges call on this builder.
func (b *Builder) FromEdges(n int, edges []Edge) (*Undirected, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
	}
	deg := b.scratchInt32(&b.deg, n)
	for i := range deg {
		deg[i] = 0
	}
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	a := &b.arenas[b.next]
	b.next ^= 1
	if cap(a.off) < n+1 {
		a.off = make([]int32, n+1)
	}
	off := a.off[:n+1]
	off[0] = 0
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	if cap(a.adj) < int(off[n]) {
		a.adj = make([]int32, off[n])
	}
	adj := a.adj[:off[n]]
	cursor := b.scratchInt32(&b.cursor, n)
	copy(cursor, off[:n])
	for _, e := range edges {
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Sort each adjacency list and drop duplicates in place, compacting the
	// offsets as we go. off is rewritten behind the read position, which is
	// safe because the write index never overtakes the read index.
	w := int32(0)
	lo := int32(0)
	for v := 0; v < n; v++ {
		hi := off[v+1]
		seg := adj[lo:hi]
		slices.Sort(seg)
		lo = hi
		start := w
		var prev int32 = -1
		for _, u := range seg {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
		off[v] = start
	}
	off[n] = w
	// Shift: off[v] now holds the *start* of v's compacted list, which is the
	// CSR convention already (off[v]..off[v+1]).
	a.g = Undirected{n: n, m: int(w) / 2, off: off, adj: adj[:w]}
	return &a.g, nil
}

// scratchInt32 resizes *buf to n entries (contents unspecified) reusing its
// capacity.
func (b *Builder) scratchInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
