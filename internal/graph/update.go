package graph

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"unicode"
)

// Op is the kind of a unit update.
type Op int8

// Unit update kinds of the incremental model (Section 2.2): edge insertion
// (possibly with new nodes) and edge deletion.
const (
	Insert Op = iota
	Delete
)

func (op Op) String() string {
	switch op {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int8(op))
	}
}

// Update is a unit update to a graph. For insertions, FromLabel/ToLabel give
// the labels for endpoints that do not yet exist ("possibly with new
// nodes"); they are ignored for endpoints already present and for deletions.
type Update struct {
	Op        Op
	From, To  NodeID
	FromLabel string
	ToLabel   string
}

// Ins returns an edge-insertion update between existing nodes.
func Ins(v, w NodeID) Update { return Update{Op: Insert, From: v, To: w} }

// InsNew returns an edge-insertion update carrying labels for endpoints that
// may be new.
func InsNew(v, w NodeID, vl, wl string) Update {
	return Update{Op: Insert, From: v, To: w, FromLabel: vl, ToLabel: wl}
}

// Del returns an edge-deletion update.
func Del(v, w NodeID) Update { return Update{Op: Delete, From: v, To: w} }

// ParseUpdate decodes one update line: "+ v w [vlabel [wlabel]]" is an
// insertion with labels for endpoints that may be new, "- v w" a deletion,
// its fields separated by white space as strings.Fields splits them
// (Unicode spaces included). Anything else — another op, an ID that is not
// a decimal int64, a field too many — is an error. It is the one reader of
// the line format incgraphd's clients stage and cmd/incgraph's update files
// hold, and AppendUpdate its one writer. A line without labels allocates
// nothing.
func ParseUpdate(line []byte) (Update, error) {
	var f [6][]byte // one more than a line may hold, to see a field too many
	n := 0
	for line = bytes.TrimLeftFunc(line, unicode.IsSpace); len(line) > 0 && n < len(f); n++ {
		f[n], line = cutField(line)
	}
	op := f[0]
	most := 3
	if string(op) == "+" {
		most = 5
	}
	if n < 3 || n > most || string(op) != "+" && string(op) != "-" {
		return Update{}, errors.New("want '+ v w [vlabel [wlabel]]' or '- v w'")
	}
	v, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("bad source id: %v", err)
	}
	w, err := strconv.ParseInt(string(f[2]), 10, 64)
	if err != nil {
		return Update{}, fmt.Errorf("bad target id: %v", err)
	}
	if string(op) == "-" {
		return Del(NodeID(v), NodeID(w)), nil
	}
	return InsNew(NodeID(v), NodeID(w), string(f[3]), string(f[4])), nil
}

// cutField splits a line that starts with a field into that field and the
// rest after the white space that ends it: strings.Fields, one field at a
// time.
func cutField(line []byte) (field, rest []byte) {
	i := bytes.IndexFunc(line, unicode.IsSpace)
	if i < 0 {
		return line, nil
	}
	return line[:i], bytes.TrimLeftFunc(line[i:], unicode.IsSpace)
}

// AppendUpdate appends u as the line ParseUpdate reads, newline included:
// "- v w" for a deletion, "+ v w" and as many labels as are given for an
// insertion. An insertion that labels only its target writes "_" for the
// source's label, since the line cannot say "no label, then one":
// ParseUpdate reads that back as the label "_", which is the same update
// whenever the source exists (an existing endpoint's label is ignored).
func AppendUpdate(b []byte, u Update) []byte {
	op := byte('+')
	if u.Op == Delete {
		op = '-'
	}
	b = append(b, op, ' ')
	b = strconv.AppendInt(b, int64(u.From), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(u.To), 10)
	if u.Op == Insert && (u.FromLabel != "" || u.ToLabel != "") {
		from := u.FromLabel
		if from == "" {
			from = "_"
		}
		b = append(append(b, ' '), from...)
		if u.ToLabel != "" {
			b = append(append(b, ' '), u.ToLabel...)
		}
	}
	return append(b, '\n')
}

func (u Update) String() string {
	return fmt.Sprintf("%s(%d,%d)", u.Op, u.From, u.To)
}

// Edge returns the edge the update touches.
func (u Update) Edge() Edge { return Edge{u.From, u.To} }

// Batch is a batch update ΔG: a sequence of unit updates.
type Batch []Update

// Split partitions a batch into insertions ΔG+ and deletions ΔG−,
// preserving order within each class.
func (b Batch) Split() (ins, del Batch) {
	for _, u := range b {
		if u.Op == Insert {
			ins = append(ins, u)
		} else {
			del = append(del, u)
		}
	}
	return ins, del
}

// Normalize removes no-op pairs: the paper assumes w.l.o.g. that ΔG never
// both deletes and inserts the same edge. For a sequentially valid batch,
// the updates touching one edge alternate, so the net effect is determined
// by the first and last update on that edge: if they have the same op the
// last one is kept, otherwise they cancel and every update on that edge is
// dropped.
//
// A batch in which no two updates touch one edge — nearly every batch of a
// real stream — is its own normal form and is returned as is, not copied:
// callers must treat the result as read-only.
func (b Batch) Normalize() Batch {
	if !b.repeatsEdge() {
		return b
	}
	return b.normalize()
}

// normalize is Normalize for a batch known to repeat an edge.
func (b Batch) normalize() Batch {
	runs := make(map[Edge]edgeRun, len(b))
	for i, u := range b {
		r, seen := runs[u.Edge()]
		if !seen {
			r.first = u.Op
		}
		r.last = i
		runs[u.Edge()] = r
	}
	return b.normalForm(runs)
}

// edgeRun is what one pass over a batch keeps of an edge: the op of its
// first update, the position of its last, and — for validation — whether
// the edge is present after the updates so far.
type edgeRun struct {
	first   Op
	last    int
	present bool
}

// normalForm keeps the last update of each edge whose first update has the
// same op, in batch order.
func (b Batch) normalForm(runs map[Edge]edgeRun) Batch {
	out := make(Batch, 0, len(runs))
	for i, u := range b {
		if r := runs[u.Edge()]; r.last == i && r.first == u.Op {
			out = append(out, u)
		}
	}
	return out
}

// repeatsEdge reports whether two updates of the batch touch the same
// edge: pair by pair for a handful of updates, otherwise by sorting the
// edges and comparing neighbours (on the stack up to 64 updates).
func (b Batch) repeatsEdge() bool {
	if len(b) <= 8 {
		for i := range b {
			for j := i + 1; j < len(b); j++ {
				if b[i].From == b[j].From && b[i].To == b[j].To {
					return true
				}
			}
		}
		return false
	}
	var buf [64]Edge
	edges := buf[:0]
	for _, u := range b {
		edges = append(edges, u.Edge())
	}
	slices.SortFunc(edges, func(x, y Edge) int {
		if c := cmp.Compare(x.From, y.From); c != 0 {
			return c
		}
		return cmp.Compare(x.To, y.To)
	})
	for i := 1; i < len(edges); i++ {
		if edges[i] == edges[i-1] {
			return true
		}
	}
	return false
}

// ErrBadUpdate reports an update that cannot be applied.
var ErrBadUpdate = errors.New("graph: update cannot be applied")

// Apply applies a unit update to g. Inserting an edge creates missing
// endpoints using the update's labels. Applying an insertion of an existing
// edge or a deletion of a missing edge returns ErrBadUpdate.
func (g *Graph) Apply(u Update) error {
	switch u.Op {
	case Insert:
		g.EnsureNode(u.From, u.FromLabel)
		g.EnsureNode(u.To, u.ToLabel)
		if !g.AddEdge(u.From, u.To) {
			return fmt.Errorf("%w: insert of existing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
		}
	case Delete:
		if !g.DeleteEdge(u.From, u.To) {
			return fmt.Errorf("%w: delete of missing edge (%d,%d)", ErrBadUpdate, u.From, u.To)
		}
	default:
		return fmt.Errorf("%w: unknown op %v", ErrBadUpdate, u.Op)
	}
	return nil
}

// ApplyBatch applies every update of ΔG in order, producing G ⊕ ΔG.
// It stops at the first inapplicable update, leaving the updates before
// it applied.
//
// It is one serial loop at every batch size, shard count and worker
// budget. A batch could instead be validated, planned per shard and
// applied shard-parallel (PlanBatch — what the multi-process runtime
// does, with phase 1 in other processes), but in one process the planning
// alone costs about what this whole loop does, at every size from 8 to
// 65 536 updates: see BenchmarkApplyBatchSweep.
func (g *Graph) ApplyBatch(b Batch) error {
	for i, u := range b {
		if err := g.Apply(u); err != nil {
			return fmt.Errorf("update %d: %w", i, err)
		}
	}
	return nil
}

// Advance moves g from G to G ⊕ ΔG the way an engine that owns its graph
// does before it repairs: the batch is validated update by update, as
// ApplyBatch would apply it, and normalized (ValidateNormalize), a batch
// that cannot be applied is rejected before anything is touched, nodes are
// created from the raw batch (creation is a side effect of an insertion
// even when a later deletion cancels the edge), and the normalized updates
// are applied. It returns the normal form for the repair that follows.
func (g *Graph) Advance(batch Batch) (Batch, error) {
	norm, err := g.ValidateNormalize(batch)
	if err != nil {
		return nil, err
	}
	for _, u := range batch {
		if u.Op == Insert {
			g.EnsureNode(u.From, u.FromLabel)
			g.EnsureNode(u.To, u.ToLabel)
		}
	}
	// Validated above, so it cannot fail partway.
	if err := g.ApplyBatch(norm); err != nil {
		return nil, err
	}
	return norm, nil
}

// Inverse returns the update that undoes u. Inverting an insertion that
// created nodes does not remove the nodes (the model keeps them).
func (u Update) Inverse() Update {
	inv := u
	if u.Op == Insert {
		inv.Op = Delete
	} else {
		inv.Op = Insert
	}
	return inv
}

// Inverse returns the batch that undoes b when applied after b
// (reversed order, each update inverted).
func (b Batch) Inverse() Batch {
	inv := make(Batch, len(b))
	for i, u := range b {
		inv[len(b)-1-i] = u.Inverse()
	}
	return inv
}
