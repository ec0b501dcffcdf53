// Package graph implements the simple directed graphs of the paper's network
// model (Section 2.1): a set of nodes V = {0, ..., n-1} and directed edges
// without self-loops. Edge (i, j) means node i can transmit to node j.
//
// Graphs are immutable once built; construct them with a Builder or one of
// the generators in internal/topology. Immutability lets the simulation and
// condition-checking packages share a graph across goroutines without locks.
package graph

import (
	"errors"
	"fmt"
	"sort"

	"iabc/internal/nodeset"
)

// Graph is an immutable simple directed graph on nodes 0..n-1.
type Graph struct {
	n   int
	out [][]int // out[i] = sorted out-neighbors N+_i
	in  [][]int // in[i]  = sorted in-neighbors  N-_i

	inSet  []nodeset.Set // inSet[i] = bitset of N-_i
	outSet []nodeset.Set // outSet[i] = bitset of N+_i
	edges  int
}

// Builder accumulates edges for a Graph. The zero value is not usable; use
// NewBuilder.
type Builder struct {
	n   int
	adj []map[int]struct{}
	err error
}

// NewBuilder returns a Builder for a graph on n nodes. n must be at least 1.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n}
	if n < 1 {
		b.err = fmt.Errorf("graph: order must be >= 1, got %d", n)
		return b
	}
	b.adj = make([]map[int]struct{}, n)
	for i := range b.adj {
		b.adj[i] = make(map[int]struct{})
	}
	return b
}

// AddEdge records the directed edge from -> to. Self-loops and out-of-range
// endpoints are deferred errors reported by Build. Duplicate edges are
// ignored (the graph is simple).
func (b *Builder) AddEdge(from, to int) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case from < 0 || from >= b.n || to < 0 || to >= b.n:
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, b.n)
	case from == to:
		b.err = fmt.Errorf("graph: self-loop (%d,%d) not allowed", from, to)
	default:
		b.adj[from][to] = struct{}{}
	}
	return b
}

// AddUndirected records both (u,v) and (v,u), modeling the undirected graphs
// of Section 6 where each link is a pair of directed edges.
func (b *Builder) AddUndirected(u, v int) *Builder {
	return b.AddEdge(u, v).AddEdge(v, u)
}

// Build finalizes the graph. It returns the first error encountered while
// adding edges.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		n:      b.n,
		out:    make([][]int, b.n),
		in:     make([][]int, b.n),
		inSet:  make([]nodeset.Set, b.n),
		outSet: make([]nodeset.Set, b.n),
	}
	for i := range g.inSet {
		g.inSet[i] = nodeset.New(b.n)
		g.outSet[i] = nodeset.New(b.n)
	}
	for from, tos := range b.adj {
		out := make([]int, 0, len(tos))
		for to := range tos {
			out = append(out, to)
		}
		sort.Ints(out)
		g.out[from] = out
		g.edges += len(out)
		for _, to := range out {
			g.in[to] = append(g.in[to], from)
			g.inSet[to].Add(from)
			g.outSet[from].Add(to)
		}
	}
	for i := range g.in {
		sort.Ints(g.in[i])
	}
	return g, nil
}

// MustBuild is Build that panics on error, for use with statically correct
// construction (tests, generators with validated inputs).
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.edges }

// InNeighbors returns a copy of N-_i, the nodes with an edge into i, sorted
// ascending.
func (g *Graph) InNeighbors(i int) []int {
	return append([]int(nil), g.in[i]...)
}

// OutNeighbors returns a copy of N+_i, the nodes i has an edge to, sorted
// ascending.
func (g *Graph) OutNeighbors(i int) []int {
	return append([]int(nil), g.out[i]...)
}

// InView returns N-_i sorted ascending, sharing the graph's internal
// storage: callers must not modify the returned slice. The engines' round
// loops use it to avoid the per-call copy of InNeighbors.
func (g *Graph) InView(i int) []int { return g.in[i] }

// OutView returns N+_i sorted ascending, sharing the graph's internal
// storage: callers must not modify the returned slice.
func (g *Graph) OutView(i int) []int { return g.out[i] }

// InDegree returns |N-_i|.
func (g *Graph) InDegree(i int) int { return len(g.in[i]) }

// OutDegree returns |N+_i|.
func (g *Graph) OutDegree(i int) int { return len(g.out[i]) }

// MinInDegree returns the smallest in-degree over all nodes.
func (g *Graph) MinInDegree() int {
	min := g.n
	for i := 0; i < g.n; i++ {
		if d := len(g.in[i]); d < min {
			min = d
		}
	}
	return min
}

// HasEdge reports whether the directed edge (from, to) exists.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return false
	}
	return g.outSet[from].Contains(to)
}

// InSet returns a copy of the bitset of in-neighbors of i.
func (g *Graph) InSet(i int) nodeset.Set { return g.inSet[i].Clone() }

// OutSet returns a copy of the bitset of out-neighbors of i.
func (g *Graph) OutSet(i int) nodeset.Set { return g.outSet[i].Clone() }

// CountInFrom returns |N-_v ∩ s| — how many in-neighbors of v lie in s —
// without allocating: Definition 1's test, as the condition package's
// reach predicates and its reference oracles evaluate it.
func (g *Graph) CountInFrom(v int, s nodeset.Set) int {
	return g.inSet[v].IntersectionCount(s)
}

// ForEachEdge calls fn(from, to) for every edge in (from, to) ascending
// order.
func (g *Graph) ForEachEdge(fn func(from, to int)) {
	for from := 0; from < g.n; from++ {
		for _, to := range g.out[from] {
			fn(from, to)
		}
	}
}

// Transpose returns the graph with every edge reversed.
func (g *Graph) Transpose() *Graph {
	b := NewBuilder(g.n)
	g.ForEachEdge(func(from, to int) { b.AddEdge(to, from) })
	return b.MustBuild()
}

// IsSymmetric reports whether the graph is undirected in the paper's sense:
// (i,j) in E implies (j,i) in E.
func (g *Graph) IsSymmetric() bool {
	sym := true
	g.ForEachEdge(func(from, to int) {
		if !g.HasEdge(to, from) {
			sym = false
		}
	})
	return sym
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.edges != h.edges {
		return false
	}
	for i := 0; i < g.n; i++ {
		if !g.outSet[i].Equal(h.outSet[i]) {
			return false
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced by keep, along with the
// mapping from new IDs (0..|keep|-1) to original IDs.
func (g *Graph) InducedSubgraph(keep nodeset.Set) (*Graph, []int, error) {
	orig := keep.Members()
	if len(orig) == 0 {
		return nil, nil, errors.New("graph: induced subgraph of empty set")
	}
	newID := make(map[int]int, len(orig))
	for ni, oi := range orig {
		newID[oi] = ni
	}
	b := NewBuilder(len(orig))
	g.ForEachEdge(func(from, to int) {
		nf, okF := newID[from]
		nt, okT := newID[to]
		if okF && okT {
			b.AddEdge(nf, nt)
		}
	})
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, orig, nil
}

// ReachableFrom returns the set of nodes reachable from start by directed
// paths (including start itself).
func (g *Graph) ReachableFrom(start int) nodeset.Set {
	seen := nodeset.New(g.n)
	if start < 0 || start >= g.n {
		return seen
	}
	stack := []int{start}
	seen.Add(start)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.out[v] {
			if !seen.Contains(w) {
				seen.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// IsStronglyConnected reports whether every node reaches every other node.
func (g *Graph) IsStronglyConnected() bool {
	if g.n == 0 {
		return false
	}
	if g.ReachableFrom(0).Count() != g.n {
		return false
	}
	return g.Transpose().ReachableFrom(0).Count() == g.n
}

// StronglyConnectedComponents returns the SCCs of the graph in reverse
// topological order (Tarjan's algorithm, iterative to avoid deep recursion
// on large path graphs). Each component is a sorted slice of node IDs.
func (g *Graph) StronglyConnectedComponents() [][]int {
	const unvisited = -1
	index := make([]int, g.n)
	low := make([]int, g.n)
	onStack := make([]bool, g.n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack  []int
		comps  [][]int
		nextID int
	)

	type frame struct {
		v  int
		ni int // next out-neighbor index to explore
	}
	for root := 0; root < g.n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{v: root}}
		index[root] = nextID
		low[root] = nextID
		nextID++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ni < len(g.out[f.v]) {
				w := g.out[f.v][f.ni]
				f.ni++
				if index[w] == unvisited {
					index[w] = nextID
					low[w] = nextID
					nextID++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Done with v: pop frame, maybe emit a component.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := &frames[len(frames)-1]
				if low[v] < low[parent.v] {
					low[parent.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// String returns a compact description like "Graph(n=5, m=20)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.n, g.edges)
}
