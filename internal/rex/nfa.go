package rex

import (
	"sort"

	"incgraph/internal/graph"
)

// NFA is an ε-free nondeterministic finite automaton over node labels,
// built with the Glushkov (position) construction: one state per label
// occurrence of the expression plus the initial state 0, so |S| = |Q| + 1.
//
// The paper's RPQ_NFA batch algorithm and IncRPQ both traverse the
// intersection (product) of a graph with this automaton.
type NFA struct {
	// numStates counts states; state 0 is initial, states 1..numStates-1
	// are the Glushkov positions.
	numStates int
	accept    []bool
	// trans[s] maps a label to the sorted target states reachable from s
	// by consuming that label.
	trans []map[string][]int
	// The dense tables serve the product-graph traversals of RPQ_NFA and
	// IncRPQ, which look a transition up per edge. col maps a LabelID to
	// the column of its label, 1..cols-1 in order of first occurrence in the
	// expression; column 0 stands for every label outside the query's
	// alphabet, including NoLabel and labels interned after Compile (their
	// IDs lie past the end of col), and is empty in every row.
	col  []int32
	cols int
	// next[s*cols+c] is δ(s, label of column c), sorted; prev is its
	// transpose: prev[t*cols+c] lists the states s with t ∈ next[s*cols+c].
	next, prev [][]int
}

// StateID identifies an NFA state; 0 is the initial state.
type StateID = int

// Compile builds the Glushkov automaton of a.
func Compile(a *Ast) *NFA {
	c := &compiler{}
	info := c.analyze(a)
	n := &NFA{
		numStates: len(c.positions) + 1,
		accept:    make([]bool, len(c.positions)+1),
		trans:     make([]map[string][]int, len(c.positions)+1),
	}
	for i := range n.trans {
		n.trans[i] = make(map[string][]int)
	}
	n.accept[0] = info.nullable
	for _, p := range info.last {
		n.accept[p] = true
	}
	addMoves := func(from int, targets []int) {
		for _, q := range targets {
			lbl := c.positions[q-1]
			n.trans[from][lbl] = append(n.trans[from][lbl], q)
		}
	}
	addMoves(0, info.first)
	for p := range c.positions {
		addMoves(p+1, c.follow[p+1])
	}
	n.cols = 1
	for _, lbl := range c.positions {
		lid := graph.InternLabel(lbl)
		if int(lid) >= len(n.col) {
			n.col = append(n.col, make([]int32, int(lid)+1-len(n.col))...)
		}
		if n.col[lid] == 0 {
			n.col[lid] = int32(n.cols)
			n.cols++
		}
	}
	n.next = make([][]int, n.numStates*n.cols)
	n.prev = make([][]int, n.numStates*n.cols)
	for s := range n.trans {
		for lbl, ts := range n.trans[s] {
			sort.Ints(ts)
			ts = dedupInts(ts)
			n.trans[s][lbl] = ts
			n.next[s*n.cols+n.column(graph.InternLabel(lbl))] = ts
		}
	}
	// Ascending s keeps every prev row sorted.
	for s := 0; s < n.numStates; s++ {
		for c := 1; c < n.cols; c++ {
			for _, t := range n.next[s*n.cols+c] {
				n.prev[t*n.cols+c] = append(n.prev[t*n.cols+c], s)
			}
		}
	}
	return n
}

// column returns the dense-table column of lid; 0 when the label is not in
// the query's alphabet.
func (n *NFA) column(lid graph.LabelID) int {
	if int(lid) < len(n.col) {
		return int(n.col[lid])
	}
	return 0
}

func dedupInts(ts []int) []int {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// NumStates returns the number of states (|Q| + 1).
func (n *NFA) NumStates() int { return n.numStates }

// Start returns the initial state.
func (n *NFA) Start() StateID { return 0 }

// Accepting reports whether s is an accepting state.
func (n *NFA) Accepting(s StateID) bool { return n.accept[s] }

// Next returns δ(s, label): the states reachable from s by consuming label.
// The returned slice is shared and must not be modified.
func (n *NFA) Next(s StateID, label string) []int { return n.trans[s][label] }

// NextID is Next keyed by interned label ID — the hot-path variant used by
// the product traversals. NoLabel (and any label absent from the query
// alphabet) yields nil.
func (n *NFA) NextID(s StateID, lid graph.LabelID) []int { return n.next[s*n.cols+n.column(lid)] }

// PrevID is the transpose of NextID: the states s with t ∈ δ(s, label),
// ascending. The returned slice is shared and must not be modified.
func (n *NFA) PrevID(t StateID, lid graph.LabelID) []int { return n.prev[t*n.cols+n.column(lid)] }

// AcceptsEmpty reports whether ε is in the language.
func (n *NFA) AcceptsEmpty() bool { return n.accept[0] }

// MatchSeq simulates the automaton on a label sequence; used for testing
// against Ast.MatchSeq.
func (n *NFA) MatchSeq(labels []string) bool {
	cur := map[int]bool{0: true}
	for _, l := range labels {
		next := make(map[int]bool)
		for s := range cur {
			for _, t := range n.Next(s, l) {
				next[t] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for s := range cur {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// compiler computes the Glushkov position sets.
type compiler struct {
	// positions[i] is the label of position i+1.
	positions []string
	// follow[p] is Follow(p) for position p ≥ 1.
	follow map[int][]int
}

// posInfo carries the classic Glushkov attributes of a subexpression.
type posInfo struct {
	nullable bool
	first    []int
	last     []int
}

func (c *compiler) analyze(a *Ast) posInfo {
	if c.follow == nil {
		c.follow = make(map[int][]int)
	}
	switch a.Kind {
	case Eps:
		return posInfo{nullable: true}
	case Lbl:
		c.positions = append(c.positions, a.Label)
		p := len(c.positions)
		return posInfo{nullable: false, first: []int{p}, last: []int{p}}
	case Union:
		l := c.analyze(a.Left)
		r := c.analyze(a.Right)
		return posInfo{
			nullable: l.nullable || r.nullable,
			first:    append(append([]int{}, l.first...), r.first...),
			last:     append(append([]int{}, l.last...), r.last...),
		}
	case Concat:
		l := c.analyze(a.Left)
		r := c.analyze(a.Right)
		for _, p := range l.last {
			c.follow[p] = append(c.follow[p], r.first...)
		}
		info := posInfo{nullable: l.nullable && r.nullable}
		info.first = append(info.first, l.first...)
		if l.nullable {
			info.first = append(info.first, r.first...)
		}
		info.last = append(info.last, r.last...)
		if r.nullable {
			info.last = append(info.last, l.last...)
		}
		return info
	case Star:
		l := c.analyze(a.Left)
		for _, p := range l.last {
			c.follow[p] = append(c.follow[p], l.first...)
		}
		return posInfo{nullable: true, first: l.first, last: l.last}
	}
	return posInfo{}
}
