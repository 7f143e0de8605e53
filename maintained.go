package incgraph

import (
	"fmt"
	"io"
)

// Maintained is the common surface of the four incrementally maintained
// query classes: apply a batch ΔG, learn how the answer moved. It lets
// callers drive heterogeneous standing queries uniformly (see
// examples/social_stream for the long-hand version).
//
// Who mutates the graph. An engine is built on a graph and stands in one of
// two relations to it. It owns the graph — the standalone case, and what
// every New* constructor gives you: nobody else mutates it, and Apply is
// the one way ΔG reaches it (validate, create nodes, apply, then repair).
// Or the graph belongs to a Durable the engine is attached to in place
// (built on Durable.Graph(), see Attach): then only the Durable mutates it
// — once per commit, whatever the number of engines — and reaches the
// engine's repair through an entry the adapters keep unexported, which
// assumes what the paper's IncX(Q, G, Q(G), ΔG) assumes: the graph was G
// when the engine last returned, is G ⊕ ΔG now, and ΔG was valid on G.
// Calling Apply on such an engine yourself would apply ΔG to the shared
// graph a second time; commit through the Durable. The engines themselves
// expose the same split (kws.Index.Repair etc. beside Apply), and Apply is
// nothing but "advance my graph, then Repair".
//
// Concurrency: Apply requires exclusive access to the value and its graph
// (graph mutation is exclusive). Internally the KWS, RPQ and ISO repairs
// may fan out across up to the graph's Parallelism() workers, but only
// as far as a repair is long: each loop runs on the calling goroutine,
// which offers the work to a helper and never waits for one that did not
// arrive in time, so an ordinary small batch is repaired by the caller
// alone. Deltas are merged deterministically, so results are
// identical at any worker or shard count and any width. Between Apply
// calls the KWS, RPQ and ISO engines with
// Parallelism() > 1 leave the graph read-shareable, so their read-only
// methods (Size, Class, Graph and the concrete types' accessors) may be
// called from multiple goroutines. At Parallelism() == 1 — and for SCC,
// which repairs sequentially — the engines skip that housekeeping: call
// Graph().PrepareConcurrentReads() before sharing reads across
// goroutines.
//
// The values MaintainKWS, MaintainRPQ, MaintainSCC and MaintainISO return
// also implement RowAnswer (rows.go): the answer and every ΔO as rows of
// NodeIDs, for holders that keep Q(G) current as Q(G) ⊕ ΔO instead of
// reading the engine — incgraphd's read path is one. What that surface
// promises: a row, once returned, is immutable and may be read from any
// goroutine for as long as it is kept (scc rows are the engine's own member
// slices, shared); LastDelta describes the last successful Apply until the
// next one — a rejected batch leaves it standing — and the value it returned
// stays valid after that. A type that wraps a Maintained hides the surface
// unless it forwards it.
type Maintained interface {
	// Apply applies ΔG to the underlying graph, which the engine must own,
	// and repairs the answer, returning a summary of ΔO. A batch that
	// cannot be applied is rejected before graph or answer is touched.
	// Class-specific deltas remain available on the concrete types.
	Apply(batch Batch) (DeltaSummary, error)
	// Size returns the current answer cardinality (|Q(G)| — match roots,
	// match pairs, embeddings, or components).
	Size() int
	// Class names the query class ("kws", "rpq", "scc", "iso").
	Class() string
	// Graph returns the graph the engine was built on and reads: mutated
	// by Apply when the engine owns it, by the Durable alone when the
	// engine is attached in place (then it is that Durable's Graph(), and
	// the same for every engine so attached).
	Graph() *Graph
	// WriteAnswer serializes the current answer Q(G) in the class's
	// canonical text form: identical answers produce identical bytes,
	// whatever worker count, shard count, or recovery path computed them.
	// The durability layer's recovery-parity guarantee is stated — and
	// tested — in terms of these bytes.
	WriteAnswer(w io.Writer) error
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
func MaintainKWS(ix *KWSIndex) Maintained { return &kwsAdapter{ix: ix} }

// MaintainRPQ adapts a regular-path-query engine.
func MaintainRPQ(e *RPQEngine) Maintained { return &rpqAdapter{e: e} }

// MaintainSCC adapts a strongly-connected-components state.
func MaintainSCC(s *SCCState) Maintained { return &sccAdapter{s: s} }

// MaintainISO adapts a subgraph-isomorphism index.
func MaintainISO(ix *ISOIndex) Maintained { return &isoAdapter{ix: ix} }

// repairer is what the four Maintain* adapters offer beside Maintained, and
// what Durable.Attach looks for in an engine built directly on its graph:
// the engine's repair without the graph work. The caller owns the graph,
// which was G when the engine last returned and is G ⊕ ΔG now; batch is ΔG,
// valid on G, and norm is batch.Normalize(). The engine does not mutate the
// graph and nothing can be rejected any more, so there is no error.
type repairer interface {
	repair(batch, norm Batch) DeltaSummary
}

// The adapters keep the ΔO of their last successful Apply or repair for
// RowAnswer.LastDelta (rows.go); took records it and summarizes it.
type kwsAdapter struct {
	ix   *KWSIndex
	last KWSDelta
}

func (a *kwsAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.ix.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return a.took(d), nil
}
func (a *kwsAdapter) repair(batch, norm Batch) DeltaSummary { return a.took(a.ix.Repair(batch, norm)) }
func (a *kwsAdapter) took(d KWSDelta) DeltaSummary {
	a.last = d
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed), Updated: len(d.Updated)}
}
func (a *kwsAdapter) Size() int                     { return a.ix.NumMatches() }
func (a *kwsAdapter) Class() string                 { return "kws" }
func (a *kwsAdapter) Graph() *Graph                 { return a.ix.Graph() }
func (a *kwsAdapter) WriteAnswer(w io.Writer) error { return a.ix.WriteAnswer(w) }

type rpqAdapter struct {
	e    *RPQEngine
	last RPQDelta
}

func (a *rpqAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.e.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return a.took(d), nil
}
func (a *rpqAdapter) repair(batch, norm Batch) DeltaSummary { return a.took(a.e.Repair(batch, norm)) }
func (a *rpqAdapter) took(d RPQDelta) DeltaSummary {
	a.last = d
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}
}
func (a *rpqAdapter) Size() int                     { return a.e.NumMatches() }
func (a *rpqAdapter) Class() string                 { return "rpq" }
func (a *rpqAdapter) Graph() *Graph                 { return a.e.Graph() }
func (a *rpqAdapter) WriteAnswer(w io.Writer) error { return a.e.WriteAnswer(w) }

type sccAdapter struct {
	s    *SCCState
	last SCCDelta
}

func (a *sccAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.s.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return a.took(d), nil
}
func (a *sccAdapter) repair(batch, norm Batch) DeltaSummary { return a.took(a.s.Repair(batch, norm)) }
func (a *sccAdapter) took(d SCCDelta) DeltaSummary {
	a.last = d
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}
}
func (a *sccAdapter) Size() int                     { return a.s.NumComponents() }
func (a *sccAdapter) Class() string                 { return "scc" }
func (a *sccAdapter) Graph() *Graph                 { return a.s.Graph() }
func (a *sccAdapter) WriteAnswer(w io.Writer) error { return a.s.WriteAnswer(w) }

type isoAdapter struct {
	ix   *ISOIndex
	last ISODelta
}

func (a *isoAdapter) Apply(batch Batch) (DeltaSummary, error) {
	d, err := a.ix.Apply(batch)
	if err != nil {
		return DeltaSummary{}, err
	}
	return a.took(d), nil
}
func (a *isoAdapter) repair(_, norm Batch) DeltaSummary { return a.took(a.ix.Repair(norm)) }
func (a *isoAdapter) took(d ISODelta) DeltaSummary {
	a.last = d
	return DeltaSummary{Added: len(d.Added), Removed: len(d.Removed)}
}
func (a *isoAdapter) Size() int                     { return a.ix.NumMatches() }
func (a *isoAdapter) Class() string                 { return "iso" }
func (a *isoAdapter) Graph() *Graph                 { return a.ix.Graph() }
func (a *isoAdapter) WriteAnswer(w io.Writer) error { return a.ix.WriteAnswer(w) }
