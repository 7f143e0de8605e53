package incgraph

import (
	"fmt"
	"io"

	"incgraph/internal/graph"
)

// Maintained is the one contract of the four incrementally maintained query
// classes, the paper's IncX(Q, G, Q(G), ΔG) → ΔO: apply a batch ΔG, learn
// how the answer moved, and read the answer and every ΔO as rows of
// NodeIDs. MaintainKWS, MaintainRPQ, MaintainSCC and MaintainISO return it,
// each over its engine, which holds its class's row layout, order and line
// format itself:
//
//	kws  [root d1 … dm], keyed by root
//	rpq  [src dst]
//	scc  the member list, ascending, keyed by its smallest member; the
//	     slice is the engine's own, shared, never copied
//	iso  the embedding, aligned with Pattern.Nodes(), in Match.Key() order
//
// The rows let a holder keep Q(G) current as Q(G) ⊕ ΔO (MergeRows) instead
// of asking the engine again — incgraphd's read path is one. A row, once
// returned, is immutable and may be read from any goroutine for as long as
// it is kept.
//
// Who mutates the graph. Apply validates ΔG, applies it to the engine's
// graph and repairs: the engine owns that graph. An engine built on a
// Durable's Graph() and attached to it (see Attach) does not: the Durable
// moves the shared graph once per commit and reaches the engine's repair
// alone, which assumes what IncX assumes — the graph was G when the engine
// last returned, is G ⊕ ΔG now, and ΔG was valid on G. Calling Apply on
// such an engine yourself would apply ΔG a second time; commit through the
// Durable.
//
// Concurrency: Apply requires exclusive access to the value and its graph
// (graph mutation is exclusive); so do Rows and LastDelta, which read the
// engine. CompareRows and AppendRow touch no state. Internally the KWS,
// RPQ and ISO repairs may fan out across up to the graph's Parallelism()
// workers, but only as far as a repair is long: each loop runs on the
// calling goroutine, which offers the work to a helper and never waits for
// one that did not arrive in time. Deltas are merged deterministically, so
// results are identical at any worker or shard count. Between Apply calls
// the graph is read-shareable, for every class at any parallelism, so the
// read-only methods may be called from multiple goroutines.
type Maintained interface {
	// Apply applies ΔG to the underlying graph, which the engine must own,
	// and repairs the answer, returning a summary of ΔO. A batch that
	// cannot be applied is rejected before graph or answer is touched.
	// Class-specific deltas remain available on the concrete types.
	Apply(batch Batch) (DeltaSummary, error)
	// Size returns the current answer cardinality (|Q(G)| — match roots,
	// match pairs, components, or embeddings).
	Size() int
	// Class names the query class ("kws", "rpq", "scc", "iso").
	Class() string
	// Graph returns the graph the engine was built on and reads: mutated
	// by Apply when the engine owns it, by the Durable alone when the
	// engine is attached in place (then it is that Durable's Graph(), and
	// the same for every engine so attached).
	Graph() *Graph
	// WriteAnswer serializes the current answer Q(G) in the class's
	// canonical text form, one AppendRow line per row of Rows: identical
	// answers produce identical bytes, whatever worker count, shard count,
	// or recovery path computed them. The durability layer's
	// recovery-parity guarantee is stated — and tested — in these bytes.
	WriteAnswer(w io.Writer) error
	// Rows returns Q(G) as it is now, in canonical order.
	Rows() Rows
	// LastDelta returns ΔO of the last successful Apply (or in-place
	// repair) — an empty delta before the first. A rejected batch leaves
	// it standing; the value returned stays valid after the next one.
	LastDelta() RowDelta
	// CompareRows orders two rows canonically by their keys (kws rows of
	// one root compare equal whatever their distances).
	CompareRows(a, b []NodeID) int
	// AppendRow appends the line WriteAnswer prints for row, newline
	// included.
	AppendRow(dst []byte, row []NodeID) []byte
}

type (
	// Rows is an immutable sequence of answer rows in canonical order.
	Rows = graph.Rows
	// RowDelta is one ΔO, held as the engine's own Delta value: taking it
	// from LastDelta costs one allocation whatever its size, and rows are
	// made of it only when Each is called.
	RowDelta = graph.RowDelta
)

// MergeRows calls emit for every row of base ⊕ chain[0] ⊕ chain[1] ⊕ …, in
// canonical order. base must be m's Rows at some point and chain the
// deltas of m's consecutive Applys since. It costs the rows of the chain,
// sorted, and one pass over base; nothing is copied.
func MergeRows(m Maintained, base Rows, chain []RowDelta, emit func(row []NodeID)) {
	graph.MergeRows(m, base, chain, emit)
}

// FoldRows returns base ⊕ chain as Rows of their own: fixed-width rows are
// copied into one new array, shared rows stay shared. size is the number of
// rows the result has (m's Size at the end of the chain).
func FoldRows(m Maintained, base Rows, chain []RowDelta, size int) Rows {
	return graph.FoldRows(m, base, chain, size)
}

// DeltaSummary is the class-agnostic view of an output change ΔO.
type DeltaSummary struct {
	Added, Removed, Updated int
}

// Empty reports whether the answer was unaffected.
func (d DeltaSummary) Empty() bool { return d.Added == 0 && d.Removed == 0 && d.Updated == 0 }

func (d DeltaSummary) String() string {
	return fmt.Sprintf("ΔO{+%d −%d ~%d}", d.Added, d.Removed, d.Updated)
}

// MaintainKWS adapts a keyword-search index.
func MaintainKWS(ix *KWSIndex) Maintained { return &adapter[KWSDelta]{engine: ix, class: "kws"} }

// MaintainRPQ adapts a regular-path-query engine.
func MaintainRPQ(e *RPQEngine) Maintained { return &adapter[RPQDelta]{engine: e, class: "rpq"} }

// MaintainSCC adapts a strongly-connected-components state.
func MaintainSCC(s *SCCState) Maintained { return &adapter[SCCDelta]{engine: s, class: "scc"} }

// MaintainISO adapts a subgraph-isomorphism index.
func MaintainISO(ix *ISOIndex) Maintained { return &adapter[ISODelta]{engine: ix, class: "iso"} }

// engine is what every class's engine offers: Apply for an engine that
// owns its graph, Repair for one whose graph its owner has already moved
// from G to G ⊕ ΔG (batch is ΔG, valid on G, and norm batch.Normalize()),
// and the answer as rows. The Delta both return is ΔO.
type engine[D delta] interface {
	Apply(batch Batch) (D, error)
	Repair(batch, norm Batch) D
	Size() int
	Graph() *Graph
	WriteAnswer(w io.Writer) error
	Rows() Rows
	CompareRows(a, b []NodeID) int
	AppendRow(dst []byte, row []NodeID) []byte
}

// delta is what every class's Delta offers: its rows and its counts.
type delta interface {
	RowDelta
	Counts() (added, removed, updated int)
}

// repairer is what Durable.Attach looks for in an engine built directly on
// its graph: the engine's repair without the graph work. The caller owns
// the graph, which was G when the engine last returned and is G ⊕ ΔG now;
// batch is ΔG, valid on G, and norm is batch.Normalize(). The engine does
// not mutate the graph and nothing can be rejected any more, so there is
// no error.
type repairer interface {
	repair(batch, norm Batch) DeltaSummary
}

// adapter is Maintained over one engine. It keeps the ΔO of the last
// successful Apply or repair for LastDelta.
type adapter[D delta] struct {
	engine[D]
	class string
	last  D
}

func (a *adapter[D]) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.engine.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return a.took(d), nil
}

func (a *adapter[D]) repair(batch, norm Batch) DeltaSummary { return a.took(a.Repair(batch, norm)) }

func (a *adapter[D]) took(d D) DeltaSummary {
	a.last = d
	added, removed, updated := d.Counts()
	return DeltaSummary{Added: added, Removed: removed, Updated: updated}
}

func (a *adapter[D]) Class() string       { return a.class }
func (a *adapter[D]) LastDelta() RowDelta { return a.last }
