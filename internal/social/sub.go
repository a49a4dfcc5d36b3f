package social

// Sub is a mutable induced subgraph of a Graph, supporting the cascading
// deletion of Algorithm 1's DFS procedure: deleting a vertex recursively
// deletes every vertex whose degree drops below k, then discards components
// disconnected from the query vertices. Deletions can be attempted
// tentatively and rolled back, which implements Corollary 1 (if deleting the
// smallest-score vertex would destroy the k-ĉore containing Q, the current
// community is the non-contained MAC and the deletion must not happen).
// Once a successful deletion has left the community connected, the next
// deletion checks connectivity only around the vertices it removes.
type Sub struct {
	g     *Graph
	alive []bool
	deg   []int32
	size  int
	// connected records that the alive vertices are known to form one
	// connected component, which lets TryDeleteCascade check connectivity
	// locally around the deleted vertices.
	connected bool

	// Search scratch, owned by this Sub and never copied: mark[v] == epoch
	// means v was visited by the current search; queue and stack are the
	// reusable work lists.
	mark  []uint32
	epoch uint32
	queue []int32
	stack []int32
}

// NewSub builds the induced subgraph over the given vertex list.
func NewSub(g *Graph, vertices []int32) *Sub {
	s := new(Sub)
	s.ResetTo(g, vertices)
	return s
}

// Clone returns an independent copy of the subgraph state.
func (s *Sub) Clone() *Sub {
	return &Sub{
		g:         s.g,
		alive:     append([]bool(nil), s.alive...),
		deg:       append([]int32(nil), s.deg...),
		size:      s.size,
		connected: s.connected,
	}
}

// CopyFrom overwrites s with the state of o, reusing s's storage when
// possible — the allocation-free alternative to Clone for pooled scratch.
func (s *Sub) CopyFrom(o *Sub) {
	s.g = o.g
	s.alive = append(s.alive[:0], o.alive...)
	s.deg = append(s.deg[:0], o.deg...)
	s.size = o.size
	s.connected = o.connected
}

// ResetTo re-initializes s as the induced subgraph of g over vertices,
// reusing s's storage (the allocation-free alternative to NewSub).
func (s *Sub) ResetTo(g *Graph, vertices []int32) {
	n := g.N()
	// alive and deg can have diverging capacities (CopyFrom grows them with
	// separate appends), so both must be checked before reslicing.
	if cap(s.alive) < n || cap(s.deg) < n {
		s.alive = make([]bool, n)
		s.deg = make([]int32, n)
	} else {
		s.alive = s.alive[:n]
		s.deg = s.deg[:n]
		for i := range s.alive {
			s.alive[i] = false
		}
		for i := range s.deg {
			s.deg[i] = 0
		}
	}
	s.g = g
	s.size = 0
	s.connected = false
	for _, v := range vertices {
		if !s.alive[v] {
			s.alive[v] = true
			s.size++
		}
	}
	for _, v := range vertices {
		d := int32(0)
		for _, w := range g.adj[v] {
			if s.alive[w] {
				d++
			}
		}
		s.deg[v] = d
	}
}

// Graph returns the underlying immutable graph.
func (s *Sub) Graph() *Graph { return s.g }

// Size returns the number of alive vertices.
func (s *Sub) Size() int { return s.size }

// Alive reports whether v is in the subgraph.
func (s *Sub) Alive(v int32) bool { return s.alive[v] }

// Degree returns v's degree within the subgraph (0 if deleted).
func (s *Sub) Degree(v int32) int { return int(s.deg[v]) }

// Vertices returns the alive vertex list in increasing order.
func (s *Sub) Vertices() []int32 {
	out := make([]int32, 0, s.size)
	for v, a := range s.alive {
		if a {
			out = append(out, int32(v))
		}
	}
	return out
}

// MinDegree returns the minimum degree over alive vertices (0 for empty).
func (s *Sub) MinDegree() int {
	first := true
	md := 0
	for v, a := range s.alive {
		if !a {
			continue
		}
		if first || int(s.deg[v]) < md {
			md = int(s.deg[v])
			first = false
		}
	}
	return md
}

// AliveNeighbors appends the alive neighbors of v to buf and returns it.
func (s *Sub) AliveNeighbors(v int32, buf []int32) []int32 {
	for _, w := range s.g.adj[v] {
		if s.alive[w] {
			buf = append(buf, w)
		}
	}
	return buf
}

// Remove deletes v unconditionally (no cascade, no rollback), updating
// neighbor degrees. Callers that need the k-core maintained should use
// TryDeleteCascade or cascade on their own.
func (s *Sub) Remove(v int32) {
	if !s.alive[v] {
		return
	}
	s.alive[v] = false
	s.size--
	s.deg[v] = 0
	s.connected = false
	for _, w := range s.g.adj[v] {
		if s.alive[w] {
			s.deg[w]--
		}
	}
}

// remove deletes v unconditionally, updating neighbor degrees, and records
// it in the undo log.
func (s *Sub) remove(v int32, log *[]int32) {
	s.alive[v] = false
	s.size--
	s.deg[v] = 0
	for _, w := range s.g.adj[v] {
		if s.alive[w] {
			s.deg[w]--
		}
	}
	*log = append(*log, v)
}

// restore rolls back the deletions recorded in log (in reverse order).
func (s *Sub) restore(log []int32) {
	for i := len(log) - 1; i >= 0; i-- {
		v := log[i]
		s.alive[v] = true
		s.size++
		d := int32(0)
		for _, w := range s.g.adj[v] {
			if s.alive[w] {
				s.deg[w]++
				d++
			}
		}
		s.deg[v] = d
	}
}

// TryDeleteCascade tentatively deletes u, recursively deletes every vertex
// whose degree drops below k (the DFS procedure of Algorithm 1), and then
// discards any component disconnected from q[0]. If the cascade would
// delete a query vertex or disconnect Q, the subgraph is restored and
// ok=false is returned (Corollary 1 holds: the current community is a
// non-contained MAC). Otherwise the deletion batch (in deletion order) is
// returned and the subgraph reflects the new community.
func (s *Sub) TryDeleteCascade(u int32, k int, q []int32) (batch []int32, ok bool) {
	if !s.alive[u] {
		return nil, true
	}
	if containsVertex(q, u) {
		return nil, false
	}
	var log []int32
	// Cascade: stack-based DFS deletion of degree violations.
	s.remove(u, &log)
	stack := s.stack[:0]
	for _, w := range s.g.adj[u] {
		if s.alive[w] && int(s.deg[w]) < k {
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !s.alive[v] || int(s.deg[v]) >= k {
			continue
		}
		if containsVertex(q, v) {
			s.stack = stack
			s.restore(log)
			return nil, false
		}
		s.remove(v, &log)
		for _, w := range s.g.adj[v] {
			if s.alive[w] && int(s.deg[w]) < k {
				stack = append(stack, w)
			}
		}
	}
	s.stack = stack
	if len(q) == 0 {
		s.connected = false
		return log, true
	}
	// Connectivity: keep only the component containing q[0]; other
	// components cannot host a community containing Q, and dropping them
	// cannot reduce any kept degree (no edges across components).
	for _, qv := range q {
		if !s.alive[qv] {
			s.restore(log)
			return nil, false
		}
	}
	if !s.connected || !s.stillConnected(log) {
		if !s.keepComponentOf(q, &log) {
			s.restore(log)
			return nil, false
		}
	}
	s.connected = true
	return log, true
}

// stillConnected reports whether the alive set, connected before the
// vertices of removed were deleted, is still connected. Every component the
// deletion leaves holds an alive neighbour of a removed vertex (a boundary
// vertex), so one search from a boundary vertex that reaches every other
// boundary vertex proves connectivity; it stops as soon as it has.
func (s *Sub) stillConnected(removed []int32) bool {
	boundary := s.nextEpoch()
	queue := s.queue[:0]
	for _, v := range removed {
		for _, w := range s.g.adj[v] {
			if s.alive[w] && s.mark[w] != boundary {
				s.mark[w] = boundary
				queue = append(queue, w)
			}
		}
	}
	remaining := len(queue) - 1 // boundary vertices not yet reached
	if remaining <= 0 {
		s.queue = queue[:0]
		return true
	}
	seen := s.nextEpoch()
	queue = append(queue[:0], queue[0])
	s.mark[queue[0]] = seen
	for head := 0; head < len(queue); head++ {
		for _, w := range s.g.adj[queue[head]] {
			if !s.alive[w] || s.mark[w] == seen {
				continue
			}
			if s.mark[w] == boundary {
				if remaining--; remaining == 0 {
					s.queue = queue[:0]
					return true
				}
			}
			s.mark[w] = seen
			queue = append(queue, w)
		}
	}
	s.queue = queue[:0]
	return false
}

// keepComponentOf searches the whole component of q[0]. It reports false if
// a query vertex lies outside it; otherwise it deletes every other
// component in ascending vertex order, recording the deletions in log.
func (s *Sub) keepComponentOf(q []int32, log *[]int32) bool {
	reach, count := s.searchFrom(q[0])
	for _, qv := range q {
		if s.mark[qv] != reach {
			return false
		}
	}
	if count < s.size {
		for v, a := range s.alive {
			if a && s.mark[v] != reach {
				s.remove(int32(v), log)
			}
		}
	}
	return true
}

// searchFrom stamps the alive component of v with a fresh epoch and returns
// the stamp and the component's size.
func (s *Sub) searchFrom(v int32) (reach uint32, count int) {
	reach = s.nextEpoch()
	queue := append(s.queue[:0], v)
	s.mark[v] = reach
	for head := 0; head < len(queue); head++ {
		for _, w := range s.g.adj[queue[head]] {
			if s.alive[w] && s.mark[w] != reach {
				s.mark[w] = reach
				queue = append(queue, w)
			}
		}
	}
	s.queue = queue[:0]
	return reach, len(queue)
}

// nextEpoch starts a new search over the mark array and returns its stamp.
func (s *Sub) nextEpoch() uint32 {
	if len(s.mark) < s.g.N() {
		s.mark = make([]uint32, s.g.N())
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide
		clear(s.mark)
		s.epoch = 1
	}
	return s.epoch
}

func containsVertex(q []int32, v int32) bool {
	for _, x := range q {
		if x == v {
			return true
		}
	}
	return false
}

// IsConnectedKCore verifies that the alive vertices form a connected k-core
// containing every vertex of q — the invariant every community H maintained
// by the search algorithms must satisfy. Intended for tests and assertions.
func (s *Sub) IsConnectedKCore(k int, q []int32) bool {
	if s.size == 0 {
		return false
	}
	var seed int32 = -1
	for v, a := range s.alive {
		if !a {
			continue
		}
		if int(s.deg[v]) < k {
			return false
		}
		if seed < 0 {
			seed = int32(v)
		}
	}
	for _, qv := range q {
		if !s.alive[qv] {
			return false
		}
		seed = qv
	}
	if seed < 0 {
		return false
	}
	_, count := s.searchFrom(seed)
	return count == s.size
}
