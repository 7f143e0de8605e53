// Package oracle is the from-scratch half of internal/history: the graph
// every root and daemon history starts from, the one builder of every
// class's engine through the root package's adapters, the renderers the
// differential tests compare engines by, and the Oracle that holds each
// step to every class built from scratch on the history's graph, through
// history.CheckStep. It needs the root package, so the engine packages,
// which the root package imports, cannot import it. Only test files do.
package oracle

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"incgraph"
	"incgraph/internal/cost"
	"incgraph/internal/history"
	"incgraph/internal/iso"
	"incgraph/internal/kws"
	"incgraph/internal/rpq"
	"incgraph/internal/scc"
)

// Graph returns the graph every history starts from: two labels, half the
// nodes in one giant SCC.
func Graph() *incgraph.Graph {
	return incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes: 300, Edges: 1200, Labels: 2, GiantSCCFrac: 0.5, Seed: 41,
	})
}

// Engine is one class's engine as the tests drive it: the adapter, the
// engine's own audit of its state, its work meter, and — for kws and iso,
// which have a rebuild-and-diff path — the cost model's last verdict.
type Engine struct {
	M        incgraph.Maintained
	Audit    func() error
	Meter    *cost.Meter
	Estimate func() cost.Estimate
}

// Rebuilt reports whether the engine's last repair took rebuild-and-diff.
func (e Engine) Rebuilt() bool { return e.Estimate != nil && e.Estimate().PreferBatch() }

// Classes is the order every store attaches its engines in.
var Classes = []string{"kws", "rpq", "scc", "iso"}

// Builders builds each class's engine on a graph, by class.
type Builders map[string]func(g *incgraph.Graph) Engine

// Classes returns the classes b builds, in Classes order.
func (b Builders) Classes() []string {
	return slices.DeleteFunc(slices.Clone(Classes), func(class string) bool { return b[class] == nil })
}

// Queries are the standing queries the builders fix: a daemon configured
// with them serves what the builders' engines answer.
type Queries struct {
	KWS     incgraph.KWSQuery
	RPQ     string
	Pattern *incgraph.Graph
}

// Engines returns the one builder of every class's engine, with the
// queries every history fixes on a graph derived from seed. The builders
// may run on any goroutine: with the queries valid, a build cannot fail.
func Engines(seed *incgraph.Graph) (Builders, Queries) {
	q := Queries{RPQ: "l0.l1*.l0", Pattern: incgraph.NewGraph()}
	var err error
	if q.KWS, err = incgraph.RandomKWSQuery(seed, 2, 2, 7); err != nil {
		panic(err)
	}
	q.Pattern.AddNode(0, "l0")
	q.Pattern.AddNode(1, "l0")
	q.Pattern.AddNode(2, "l0")
	q.Pattern.AddEdge(0, 1)
	q.Pattern.AddEdge(0, 2)
	pat, err := incgraph.NewPattern(q.Pattern)
	if err != nil {
		panic(err)
	}
	return Builders{
		"kws": func(g *incgraph.Graph) Engine {
			meter := new(cost.Meter)
			ix, err := kws.Build(g, q.KWS, meter)
			if err != nil {
				panic(err)
			}
			return Engine{incgraph.MaintainKWS(ix), ix.Check, meter, ix.LastEstimate}
		},
		"rpq": func(g *incgraph.Graph) Engine {
			meter := new(cost.Meter)
			e, err := rpq.Parse(g, q.RPQ, meter)
			if err != nil {
				panic(err)
			}
			return Engine{incgraph.MaintainRPQ(e), e.Check, meter, nil}
		},
		"scc": func(g *incgraph.Graph) Engine {
			meter := new(cost.Meter)
			st := scc.Build(g, meter)
			return Engine{incgraph.MaintainSCC(st), st.CheckInvariants, meter, nil}
		},
		"iso": func(g *incgraph.Graph) Engine {
			meter := new(cost.Meter)
			ix := iso.Build(g, pat, meter)
			return Engine{incgraph.MaintainISO(ix), ix.Check, meter, ix.LastEstimate}
		},
	}, q
}

// Answer renders the engine's answer: WriteAnswer's bytes.
func (e Engine) Answer() string {
	var buf bytes.Buffer
	if err := e.M.WriteAnswer(&buf); err != nil {
		panic(err) // a bytes.Buffer takes every write
	}
	return buf.String()
}

// Observe renders everything a commit leaves behind in one engine that a
// caller can see: ΔO row by row, the answer, the work metered since build,
// and the cost model's verdict.
func (e Engine) Observe() string {
	est := "none"
	if e.Estimate != nil {
		est = e.Estimate().String()
	}
	return "ΔO:\n" + RenderLastDelta(e.M) + "answer:\n" + e.Answer() + "meter: " + e.Meter.String() + "\nestimate: " + est + "\n"
}

// SansMeter drops Observe's meter line: an engine a recovery rebuilt has
// metered its build and the replay, not the history's repairs.
func SansMeter(obs string) string {
	i := strings.LastIndex(obs, "meter: ")
	return obs[:i] + obs[i+strings.IndexByte(obs[i:], '\n')+1:]
}

// RenderLastDelta renders the ΔO an adapter holds row by row, one line
// each: "-" and the row for one that left Q(G), "+" for one that entered.
func RenderLastDelta(m incgraph.Maintained) string {
	var out []byte
	m.LastDelta().Each(func(row []incgraph.NodeID, gone bool) {
		sign := byte('+')
		if gone {
			sign = '-'
		}
		out = m.AppendRow(append(out, sign), row)
	})
	return string(out)
}

// FirstDiff returns the first line at which two observations part.
func FirstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// Oracle holds every class built from scratch on the history's graph as
// the last Advance left it, and the answers' rows the step before.
type Oracle struct {
	build Builders
	fresh map[string]Engine
	was   map[string]incgraph.Rows
}

// New builds every class build has from scratch on sim.
func New(build Builders, sim *incgraph.Graph) *Oracle {
	o := &Oracle{build, make(map[string]Engine, len(build)), make(map[string]incgraph.Rows, len(build))}
	o.Advance(sim)
	return o
}

// Advance rebuilds every class from scratch on sim, the history's graph
// after its next batch.
func (o *Oracle) Advance(sim *incgraph.Graph) {
	for class, mk := range o.build {
		if e, ok := o.fresh[class]; ok {
			o.was[class] = e.M.Rows()
		}
		o.fresh[class] = mk(sim.Clone())
	}
}

// Read returns what a read of class must return now: the answer's size
// and WriteAnswer's bytes.
func (o *Oracle) Read(class string) (size int, answer string) {
	e := o.fresh[class]
	return e.M.Size(), e.Answer()
}

// Check holds the engines' last ΔO and answers to the builds before and
// after the last Advance (history.CheckStep).
func (o *Oracle) Check(engines map[string]Engine) error {
	for class, e := range engines {
		fresh := o.fresh[class].M
		if err := history.CheckStep(fresh, o.was[class], fresh.Rows(), e.M.Rows(), e.M.LastDelta()); err != nil {
			return fmt.Errorf("%s: %w", class, err)
		}
	}
	return nil
}
