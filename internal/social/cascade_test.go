package social

import (
	"math/rand"
	"testing"
)

// refSub is a reference copy of the original cascade-deletion algorithm,
// which checks connectivity with a full search of the community from q[0]
// after every deletion. TryDeleteCascade must agree with it exactly: same
// batch in the same order, same outcome, same alive set and degrees.
type refSub struct {
	g     *Graph
	alive []bool
	deg   []int32
	size  int
}

func newRefSub(g *Graph, vertices []int32) *refSub {
	r := &refSub{g: g, alive: make([]bool, g.N()), deg: make([]int32, g.N())}
	for _, v := range vertices {
		if !r.alive[v] {
			r.alive[v] = true
			r.size++
		}
	}
	for _, v := range vertices {
		d := int32(0)
		for _, w := range g.adj[v] {
			if r.alive[w] {
				d++
			}
		}
		r.deg[v] = d
	}
	return r
}

func (r *refSub) clone() *refSub {
	return &refSub{g: r.g, alive: append([]bool(nil), r.alive...), deg: append([]int32(nil), r.deg...), size: r.size}
}

func (r *refSub) remove(v int32, log *[]int32) {
	r.alive[v] = false
	r.size--
	r.deg[v] = 0
	for _, w := range r.g.adj[v] {
		if r.alive[w] {
			r.deg[w]--
		}
	}
	if log != nil {
		*log = append(*log, v)
	}
}

func (r *refSub) restore(log []int32) {
	for i := len(log) - 1; i >= 0; i-- {
		v := log[i]
		r.alive[v] = true
		r.size++
		d := int32(0)
		for _, w := range r.g.adj[v] {
			if r.alive[w] {
				r.deg[w]++
				d++
			}
		}
		r.deg[v] = d
	}
}

// tryDeleteCascade is the original algorithm; split additionally reports
// whether the full search found the community split into several
// components (whatever the outcome).
func (r *refSub) tryDeleteCascade(u int32, k int, q []int32) (batch []int32, ok, split bool) {
	if !r.alive[u] {
		return nil, true, false
	}
	isQ := make(map[int32]bool, len(q))
	for _, qv := range q {
		isQ[qv] = true
	}
	if isQ[u] {
		return nil, false, false
	}
	var log []int32
	r.remove(u, &log)
	var stack []int32
	for _, w := range r.g.adj[u] {
		if r.alive[w] && int(r.deg[w]) < k {
			stack = append(stack, w)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !r.alive[v] || int(r.deg[v]) >= k {
			continue
		}
		if isQ[v] {
			r.restore(log)
			return nil, false, false
		}
		r.remove(v, &log)
		for _, w := range r.g.adj[v] {
			if r.alive[w] && int(r.deg[w]) < k {
				stack = append(stack, w)
			}
		}
	}
	if len(q) > 0 {
		if !r.alive[q[0]] {
			r.restore(log)
			return nil, false, false
		}
		reach := make([]bool, r.g.N())
		queue := []int32{q[0]}
		reach[q[0]] = true
		count := 1
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range r.g.adj[v] {
				if r.alive[w] && !reach[w] {
					reach[w] = true
					count++
					queue = append(queue, w)
				}
			}
		}
		split = count < r.size
		for _, qv := range q {
			if !reach[qv] {
				r.restore(log)
				return nil, false, split
			}
		}
		if split {
			for v, a := range r.alive {
				if a && !reach[v] {
					r.remove(int32(v), &log)
				}
			}
		}
	}
	return log, true, split
}

// sameState fails unless sub and ref hold the same alive set and the same
// degree for every vertex.
func sameState(t *testing.T, label string, sub *Sub, ref *refSub) {
	t.Helper()
	if sub.Size() != ref.size {
		t.Fatalf("%s: size %d, reference %d", label, sub.Size(), ref.size)
	}
	var want []int32
	for v, a := range ref.alive {
		if a {
			want = append(want, int32(v))
		}
	}
	got := sub.Vertices()
	if !equalIDs(got, want) {
		t.Fatalf("%s: vertices %v, reference %v", label, got, want)
	}
	for v := int32(0); int(v) < ref.g.N(); v++ {
		if sub.Degree(v) != int(ref.deg[v]) {
			t.Fatalf("%s: degree(%d) = %d, reference %d", label, v, sub.Degree(v), ref.deg[v])
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// deleteBoth runs one deletion on sub and ref and fails on any difference.
// It returns the reference's outcome and split report.
func deleteBoth(t *testing.T, label string, sub *Sub, ref *refSub, u int32, k int, q []int32) (ok, split bool) {
	t.Helper()
	batch, ok := sub.TryDeleteCascade(u, k, q)
	want, wantOK, split := ref.tryDeleteCascade(u, k, q)
	if ok != wantOK || !equalIDs(batch, want) {
		t.Fatalf("%s: delete %d (k=%d, q=%v) = (%v, %v), reference (%v, %v)", label, u, k, q, batch, ok, want, wantOK)
	}
	sameState(t, label, sub, ref)
	return ok, split
}

// sparseGraph draws a random graph of n vertices: a random spanning tree
// (bridges, so deletions can split the community) plus extra edges and a
// denser planted block (so k-cores for k > 1 exist).
func sparseGraph(t *testing.T, rng *rand.Rand, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 1)
	for v := 1; v < n; v++ {
		b.AddEdge(rng.Intn(v), v)
	}
	for e := rng.Intn(n * 2); e > 0; e-- {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	block := rng.Perm(n)[:n/3]
	for i := range block {
		for j := i + 1; j < len(block); j++ {
			if rng.Float64() < 0.4 {
				b.AddEdge(block[i], block[j])
			}
		}
	}
	for v := 0; v < n; v++ {
		b.SetAttrs(v, []float64{0})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTryDeleteCascadeMatchesReference: random graphs, random start sets
// (often disconnected), random deletion sequences interleaved with Clone,
// CopyFrom, Remove and ResetTo — every deletion must match the reference
// algorithm exactly. The local connectivity check must also have been used
// on a known-connected community that the deletion split.
func TestTryDeleteCascadeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	connectedSplits, localChecks := 0, 0
	spare := new(Sub)
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(40)
		g := sparseGraph(t, rng, n)
		k := 1 + rng.Intn(3)
		var start []int32
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.8 {
				start = append(start, int32(v))
			}
		}
		if len(start) < 2 {
			continue
		}
		q := []int32{start[rng.Intn(len(start))]}
		if rng.Intn(3) == 0 {
			if v := start[rng.Intn(len(start))]; v != q[0] {
				q = append(q, v)
			}
		}
		sub := NewSub(g, start)
		ref := newRefSub(g, start)
		for step := 0; step < 3*n && ref.size > len(q); step++ {
			switch rng.Intn(12) {
			case 0:
				sub = sub.Clone()
				ref = ref.clone()
			case 1:
				spare.CopyFrom(sub)
				sub, spare = spare, sub
			case 2:
				v := int32(rng.Intn(n))
				if sub.Alive(v) && !containsVertex(q, v) {
					sub.Remove(v)
					ref.remove(v, nil)
					if sub.connected {
						t.Fatal("Remove must clear the connected flag")
					}
				}
			case 3:
				live := sub.Vertices()
				sub.ResetTo(g, live)
				if sub.connected {
					t.Fatal("ResetTo must clear the connected flag")
				}
			}
			u := int32(rng.Intn(n))
			wasConnected, wasAlive := sub.connected, sub.Alive(u)
			ok, split := deleteBoth(t, "random", sub, ref, u, k, q)
			switch {
			case !ok && sub.connected != wasConnected:
				t.Fatal("a rolled-back deletion must leave the connected flag as it was")
			case ok && wasAlive && !sub.connected:
				t.Fatal("a successful deletion with non-empty Q must mark the community connected")
			}
			if wasConnected {
				localChecks++
				if split {
					connectedSplits++
				}
			}
		}
	}
	if localChecks == 0 || connectedSplits == 0 {
		t.Fatalf("coverage: %d deletions on connected communities, %d of them splits", localChecks, connectedSplits)
	}
}

// twoTriangles is two triangles {0,1,2} and {3,4,5} joined through vertex
// 6, which is adjacent to 2 and 3, plus a pendant 7 hanging off 0.
func twoTriangles(t *testing.T) *Graph {
	return buildGraph(t, 8, 1, [][2]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{2, 6}, {6, 3},
		{0, 7},
	})
}

// TestTryDeleteCascadeDisconnectedStart: a Sub built over a disconnected
// vertex list is not known to be connected, so the first deletion must take
// the full search and drop the component without Q.
func TestTryDeleteCascadeDisconnectedStart(t *testing.T) {
	g := twoTriangles(t)
	start := []int32{0, 1, 2, 3, 4, 5, 7} // 6 missing: two components
	sub := new(Sub)
	sub.ResetTo(g, start)
	if sub.connected {
		t.Fatal("ResetTo must not claim connectivity")
	}
	ref := newRefSub(g, start)
	if ok, _ := deleteBoth(t, "disconnected start", sub, ref, 7, 1, []int32{0}); !ok {
		t.Fatal("deleting the pendant must succeed")
	}
	for _, v := range []int32{3, 4, 5} {
		if sub.Alive(v) {
			t.Fatalf("vertex %d of the component without Q survived", v)
		}
	}
	if !sub.connected {
		t.Fatal("a successful deletion leaves a connected community")
	}
}

// TestTryDeleteCascadeAfterRemove: Remove can split the community without
// any check, so it clears the flag and the next deletion must drop the
// split-off component.
func TestTryDeleteCascadeAfterRemove(t *testing.T) {
	g := twoTriangles(t)
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	sub := NewSub(g, all)
	ref := newRefSub(g, all)
	deleteBoth(t, "prime", sub, ref, 7, 1, []int32{0})
	if !sub.connected {
		t.Fatal("flag not set after a successful deletion")
	}
	sub.Remove(6)
	ref.remove(6, nil)
	if sub.connected {
		t.Fatal("Remove must clear the connected flag")
	}
	// Deleting 1 leaves 0 and 2 with degree 1: nothing cascades, but the
	// triangle {3,4,5}, cut off by the Remove, must go.
	if ok, _ := deleteBoth(t, "after remove", sub, ref, 1, 1, []int32{0}); !ok {
		t.Fatal("deletion must succeed")
	}
	if sub.Alive(3) || sub.Alive(4) || sub.Alive(5) {
		t.Fatal("component cut off by Remove survived")
	}
}

// TestTryDeleteCascadeBridgeSplit: on a known-connected community, deleting
// the bridge vertex splits off a component without Q, which is dropped in
// ascending vertex order after the deleted vertex.
func TestTryDeleteCascadeBridgeSplit(t *testing.T) {
	g := twoTriangles(t)
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	sub := NewSub(g, all)
	ref := newRefSub(g, all)
	deleteBoth(t, "prime", sub, ref, 7, 1, []int32{0})
	batch, ok := sub.TryDeleteCascade(6, 1, []int32{0})
	want, _, _ := ref.tryDeleteCascade(6, 1, []int32{0})
	if !ok || !equalIDs(batch, []int32{6, 3, 4, 5}) || !equalIDs(batch, want) {
		t.Fatalf("batch = %v ok=%v, want [6 3 4 5] (reference %v)", batch, ok, want)
	}
	sameState(t, "bridge", sub, ref)
}

// TestTryDeleteCascadeSplitSeparatesQuery: a deletion that separates two
// query vertices fails (Corollary 1) and rolls back completely, leaving the
// community — and its connectivity knowledge — as it was.
func TestTryDeleteCascadeSplitSeparatesQuery(t *testing.T) {
	g := twoTriangles(t)
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	sub := NewSub(g, all)
	ref := newRefSub(g, all)
	q := []int32{0, 4}
	deleteBoth(t, "prime", sub, ref, 7, 1, q)
	if ok, _ := deleteBoth(t, "separate Q", sub, ref, 6, 1, q); ok {
		t.Fatal("separating the query vertices must fail")
	}
	if !sub.Alive(6) || sub.Size() != 7 {
		t.Fatalf("rollback incomplete: %v", sub.Vertices())
	}
	if !sub.connected {
		t.Fatal("a rolled-back deletion must keep the connected flag")
	}
}
