package graphutil

import "fmt"

// Matcher computes maximum matchings of general graphs with Edmonds'
// blossom algorithm. It grows an alternating tree from each free vertex,
// contracts every odd cycle (blossom) the search closes, and augments
// along the first path it finds to another free vertex. A bipartite
// matcher would not do: the graphs it serves have odd cycles, and there
// a bipartite search can miss augmenting paths and report a matching
// that is too small.
//
// The zero value is ready to use. A Matcher keeps its scratch between
// calls, so one Matcher serves a sequence of graphs without
// reallocating. It is not safe for concurrent use.
type Matcher struct {
	off, adj []int // adjacency in CSR form: the neighbors of v are adj[off[v]:off[v+1]]

	mate   []int  // mate[v] is v's partner, or -1 while v is free
	parent []int  // parent[v] leads from v toward the root across an unmatched edge, or is -1
	base   []int  // base[v] is the base of the contracted blossom holding v, or v
	even   []bool // even[v]: v is an even (outer) vertex of the current tree
	mark   []bool // bases on lca's path, then the blossoms being contracted

	seen  []int // vertices the current search has touched
	queue []int // even vertices awaiting expansion
	path  []int // bases marked by lca
}

// MaxMatching returns the size of a maximum matching of the graph on
// vertices 0..n-1 with the given edges. Parallel edges are allowed. It
// panics on a self-loop or an endpoint outside [0, n).
func (m *Matcher) MaxMatching(n int, edges [][2]int) int {
	m.build(n, edges)
	// A greedy start leaves few free vertices to search from.
	size := 0
	for _, e := range edges {
		if m.mate[e[0]] < 0 && m.mate[e[1]] < 0 {
			m.mate[e[0]], m.mate[e[1]] = e[1], e[0]
			size++
		}
	}
	// One search per free vertex suffices: a vertex with no augmenting
	// path has none after later augmentations either.
	for v := 0; v < n; v++ {
		if m.mate[v] < 0 && m.off[v] < m.off[v+1] && m.augment(v) {
			size++
		}
	}
	return size
}

// build loads the graph into CSR form and resets the per-vertex state.
func (m *Matcher) build(n int, edges [][2]int) {
	m.off = resize(m.off, n+1)
	for i := range m.off {
		m.off[i] = 0
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			panic(fmt.Sprintf("graphutil: self-loop on vertex %d", u))
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graphutil: edge (%d, %d) out of range for %d vertices", u, v, n))
		}
		m.off[u+1]++
		m.off[v+1]++
	}
	for v := 0; v < n; v++ {
		m.off[v+1] += m.off[v]
	}
	m.adj = resize(m.adj, 2*len(edges))
	// Fill each row from its end; the queue's storage is free until the
	// first search.
	fill := resize(m.queue, n)
	copy(fill, m.off[1:])
	for _, e := range edges {
		u, v := e[0], e[1]
		fill[u]--
		m.adj[fill[u]] = v
		fill[v]--
		m.adj[fill[v]] = u
	}
	m.queue = fill[:0]
	m.mate = resize(m.mate, n)
	m.parent = resize(m.parent, n)
	m.base = resize(m.base, n)
	m.even = resize(m.even, n)
	m.mark = resize(m.mark, n)
	for v := 0; v < n; v++ {
		m.mate[v], m.parent[v], m.base[v] = -1, -1, v
		m.even[v], m.mark[v] = false, false
	}
}

// augment searches for an augmenting path from the free vertex root and
// flips it if one exists. It touches only the vertices the search
// reaches and restores their scratch before returning, so a search
// costs what it explores, not the size of the graph.
func (m *Matcher) augment(root int) bool {
	defer m.clear()
	m.even[root] = true
	m.seen = append(m.seen[:0], root)
	m.queue = append(m.queue[:0], root)
	for head := 0; head < len(m.queue); head++ {
		v := m.queue[head]
		for _, to := range m.adj[m.off[v]:m.off[v+1]] {
			if m.base[v] == m.base[to] || m.mate[v] == to {
				continue
			}
			if to == root || m.mate[to] >= 0 && m.parent[m.mate[to]] >= 0 {
				m.contract(v, to)
				continue
			}
			if m.parent[to] >= 0 {
				continue
			}
			m.parent[to] = v
			m.seen = append(m.seen, to)
			if m.mate[to] < 0 {
				for u := to; u >= 0; {
					pu := m.parent[u]
					next := m.mate[pu]
					m.mate[u], m.mate[pu] = pu, u
					u = next
				}
				return true
			}
			w := m.mate[to]
			m.even[w] = true
			m.seen = append(m.seen, w)
			m.queue = append(m.queue, w)
		}
	}
	return false
}

// contract shrinks the blossom closed by the edge {v, to} between two
// even vertices into its base, making every vertex in it even.
func (m *Matcher) contract(v, to int) {
	b := m.lca(v, to)
	m.markPath(v, b, to)
	m.markPath(to, b, v)
	for _, i := range m.seen {
		if m.mark[m.base[i]] {
			m.base[i] = b
			if !m.even[i] {
				m.even[i] = true
				m.queue = append(m.queue, i)
			}
		}
	}
	for _, i := range m.seen {
		m.mark[i] = false
	}
}

// lca returns the base of the lowest common ancestor of a and b in the
// alternating tree.
func (m *Matcher) lca(a, b int) int {
	m.path = m.path[:0]
	for {
		a = m.base[a]
		m.mark[a] = true
		m.path = append(m.path, a)
		if m.mate[a] < 0 {
			break
		}
		a = m.parent[m.mate[a]]
	}
	for {
		b = m.base[b]
		if m.mark[b] {
			break
		}
		b = m.parent[m.mate[b]]
	}
	for _, u := range m.path {
		m.mark[u] = false
	}
	return b
}

// markPath walks from v up to the blossom base b, marking the blossoms
// on the way and pointing each even vertex's parent back across the
// closing edge, so a later augmenting path can traverse the blossom.
func (m *Matcher) markPath(v, b, child int) {
	for m.base[v] != b {
		m.mark[m.base[v]] = true
		m.mark[m.base[m.mate[v]]] = true
		m.parent[v] = child
		child = m.mate[v]
		v = m.parent[m.mate[v]]
	}
}

// clear restores the scratch of every vertex the last search touched.
func (m *Matcher) clear() {
	for _, v := range m.seen {
		m.parent[v], m.base[v], m.even[v] = -1, v, false
	}
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
