package graphalgo

// StreamUnionFind is the sink of the streaming connectivity pipeline: edges
// are pushed one at a time (in any order, duplicates welcome) and the
// structure maintains, incrementally, exactly the statistics that are
// union-find-answerable — component count, largest-component size, and the
// number of isolated (still-singleton) vertices. It never sees the graph, so
// a connectivity trial over a streamed edge set needs O(n) memory regardless
// of how many edges flow through.
//
// Done reports when every vertex has been merged into one component; a
// producer can use it to stop enumerating edges early (the verdict of any
// further edge is already determined), which on the connected plateau of a
// zero–one-law sweep skips most of each draw.
//
// The zero value is ready after Reset. Like UnionFind, buffers are reused
// across Reset calls, so repeated trials allocate nothing in steady state.
// Not safe for concurrent use.
type StreamUnionFind struct {
	uf       UnionFind
	size     []int32 // component size per root (valid at root indices only)
	giant    int32   // size of the largest component so far
	isolated int     // vertices still in singleton components
	touch    int32   // sink of AddBatch's load pass, so it is not elided
}

// Reset reinitializes the structure to n singleton vertices, reusing grown
// storage.
func (s *StreamUnionFind) Reset(n int) {
	s.uf.Reset(n)
	if cap(s.size) < n {
		s.size = make([]int32, n)
	}
	s.size = s.size[:n]
	for i := range s.size {
		s.size[i] = 1
	}
	s.giant = 0
	if n > 0 {
		s.giant = 1
	}
	s.isolated = n
}

// Add pushes edge (u, v) and reports whether it merged two components.
// Self-loops and repeated edges are no-ops, mirroring the multi-edge merging
// of graph.NewFromEdges.
func (s *StreamUnionFind) Add(u, v int32) bool {
	ru, rv := s.uf.Find(u), s.uf.Find(v)
	if ru == rv {
		return false
	}
	if s.size[ru] == 1 {
		s.isolated--
	}
	if s.size[rv] == 1 {
		s.isolated--
	}
	total := s.size[ru] + s.size[rv]
	root, _ := s.uf.UnionRoot(ru, rv)
	s.size[root] = total
	if total > s.giant {
		s.giant = total
	}
	return true
}

// AddBatch pushes the edges pairs[idx[0]], pairs[idx[1]], … in order and
// stops after the first one after which Done holds, returning how many
// entries of idx it pushed (len(idx) when Done never fired; 0 when Done
// already held). It matches calling Add on each edge and checking Done
// after each: same stop, same statistics.
//
// Before pushing, it loads parent[u] and parent[v] of every edge in one
// independent pass, so those cache misses — at large n each endpoint is a
// random slot of an O(n) array — overlap instead of being paid one Find at a
// time.
func (s *StreamUnionFind) AddBatch(pairs [][2]int32, idx []int32) int {
	if s.Done() {
		return 0
	}
	parent := s.uf.parent
	var touch int32
	for _, i := range idx {
		e := pairs[i]
		touch ^= parent[e[0]] ^ parent[e[1]]
	}
	s.touch = touch
	for j, i := range idx {
		e := pairs[i]
		s.Add(e[0], e[1])
		if s.Done() {
			return j + 1
		}
	}
	return len(idx)
}

// Done reports whether further edges cannot change any statistic: a single
// component remains (vacuously true for n ≤ 1). Producers use it as the
// early-exit signal of streaming connectivity trials.
func (s *StreamUnionFind) Done() bool { return s.uf.Count() <= 1 }

// Components returns the current number of components.
func (s *StreamUnionFind) Components() int { return s.uf.Count() }

// Connected reports whether a single component remains, following the
// convention of wsn.Report (n ≤ 1 is connected).
func (s *StreamUnionFind) Connected() bool { return s.uf.Count() <= 1 }

// GiantSize returns the size of the largest component so far (0 when n = 0).
func (s *StreamUnionFind) GiantSize() int { return int(s.giant) }

// IsolatedCount returns the number of vertices not yet touched by any
// effective edge — the degree-0 count of the streamed graph.
func (s *StreamUnionFind) IsolatedCount() int { return s.isolated }
