// Package bench is the experiment harness of Section 6: it regenerates
// every panel of Figure 8 plus the in-text unit-update and batch-
// optimization tables, on the scaled dataset simulations of internal/gen
// (figures.go's registry is the experiment index; gen.Dataset has the
// scaling rationale). Absolute times differ from the paper's Java/EC2 numbers; the
// reproduced claims are the shapes: who wins, by what factor, and where
// the incremental/batch crossover falls.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"incgraph/internal/graph"
)

// Series is one line of a figure: a time and allocation measurement per x
// point.
type Series struct {
	Name    string
	Seconds []float64
	// Allocs counts heap allocations (mallocs) of the measured phase per
	// point. Near-deterministic on a quiet process, unlike wall clock, so
	// the CI bench-regression gate holds it to a much tighter ratio.
	Allocs []uint64
}

// Result is one reproduced figure or table.
type Result struct {
	ID     string
	Title  string
	XLabel string
	X      []string
	Series []Series
	// Workers is the effective engine worker count the run measured.
	Workers int
	// Shards is the effective graph shard count the run measured.
	Shards int
	// Notes carries derived observations (speedups, crossovers).
	Notes []string
}

// Config tunes a harness run.
type Config struct {
	// Scale multiplies the default dataset sizes (1.0 = default bench
	// size; the paper's graphs are 2–3 orders of magnitude larger).
	Scale float64
	// Seed drives all generators.
	Seed int64
	// MaxPoints truncates the sweep for quick runs (0 = all points).
	MaxPoints int
	// Workers bounds the engines' worker pools (Graph.SetParallelism).
	// 0 means runtime.GOMAXPROCS(0); 1 measures the sequential baseline.
	Workers int
	// Shards sets the graph shard count (Graph.SetShards): how many
	// partitions ΔG application fans out over. 0 means the default
	// (smallest power of two ≥ GOMAXPROCS); 1 measures the unsharded
	// baseline.
	Shards int
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// tune applies the run configuration to a freshly generated workload
// graph. Runner clones inherit the parallelism setting, so tuning the
// base graph tunes every engine measured against it.
func (c Config) tune(g *graph.Graph) *graph.Graph {
	g.SetParallelism(c.Workers)
	g.SetShards(c.Shards)
	return g
}

// workers reports the effective worker count, for result labeling.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shards reports the effective shard count, for result labeling.
func (c Config) shards() int { return graph.EffectiveShards(c.Shards) }

// clip truncates a sweep to cfg.MaxPoints.
func clip[T any](cfg Config, xs []T) []T {
	if cfg.MaxPoints > 0 && len(xs) > cfg.MaxPoints {
		return xs[:cfg.MaxPoints]
	}
	return xs
}

// sample is one measurement of a runner's measured phase.
type sample struct {
	secs float64
	// allocs is the process-wide mallocs delta across the phase: exact for
	// the phase's own allocations plus whatever the runtime allocates
	// meanwhile, which on a quiet benchmark process is noise of at most a
	// few dozen — hence the gate's small absolute slack.
	allocs uint64
}

// timed measures one run of fn: wall clock and heap allocations.
func timed(fn func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	return sample{secs: secs, allocs: m1.Mallocs - m0.Mallocs}, err
}

// deltaPcts is the |ΔG| sweep of Exp-1: 5%..40% of |G|.
var deltaPcts = []int{5, 10, 15, 20, 25, 30, 35, 40}

// pctBatches prepares one update batch per percentage point.
func pctBatches(g *graph.Graph, pcts []int, seed int64) []graph.Batch {
	out := make([]graph.Batch, len(pcts))
	for i, p := range pcts {
		out[i] = updates(g, p*g.NumEdges()/100, seed+int64(i))
	}
	return out
}

// runner abstracts "build state on a copy of g, then measure applying the
// batch" for one algorithm variant.
type runner struct {
	name string
	// run builds whatever state it needs from a clone of g (untimed parts
	// included in its own accounting) and returns the measurement of the
	// measured phase only.
	run func(g *graph.Graph, batch graph.Batch) (sample, error)
}

// sweep executes all runners over all batches against the same base graph.
func sweep(g *graph.Graph, batches []graph.Batch, runners []runner) ([]Series, error) {
	out := make([]Series, len(runners))
	for i, r := range runners {
		out[i] = Series{Name: r.name, Seconds: make([]float64, len(batches)), Allocs: make([]uint64, len(batches))}
	}
	for j, b := range batches {
		for i, r := range runners {
			s, err := r.run(g, b)
			if err != nil {
				return nil, fmt.Errorf("%s at point %d: %w", r.name, j, err)
			}
			out[i].Seconds[j] = s.secs
			out[i].Allocs[j] = s.allocs
		}
	}
	return out, nil
}

// Format renders the result as an aligned text table.
func (r *Result) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", r.ID, r.Title); err != nil {
		return err
	}
	cols := []string{r.XLabel}
	for _, s := range r.Series {
		cols = append(cols, s.Name)
	}
	widths := make([]int, len(cols))
	rows := [][]string{cols}
	for i, x := range r.X {
		row := []string{x}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.4fs", s.Seconds[i]))
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[c]-len(cell)))
			b.WriteString(cell)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// jsonSeries is the machine-readable form of one Series. NsPerOp follows
// testing.B semantics: one op is one run of the measured phase at that
// sweep point (one batch application, or one from-scratch rebuild). Sweep
// points vary |ΔG|, so ns_per_op is comparable across PRs at the same
// point, not across points of one sweep.
type jsonSeries struct {
	Name    string    `json:"name"`
	Seconds []float64 `json:"seconds"`
	NsPerOp []float64 `json:"ns_per_op"`
	// Allocs is the mallocs count of the measured phase per point, the
	// near-deterministic signal the CI bench-regression gate holds to a
	// tight ratio (wall clock gets a generous one). Absent in baselines
	// recorded before PR 5; cmd/benchcmp skips the alloc gate then.
	Allocs []uint64 `json:"allocs,omitempty"`
}

// jsonResult is the machine-readable form of one Result.
type jsonResult struct {
	ID      string       `json:"id"`
	Title   string       `json:"title"`
	XLabel  string       `json:"xlabel"`
	Workers int          `json:"workers,omitempty"`
	Shards  int          `json:"shards,omitempty"`
	Points  []string     `json:"points"`
	Series  []jsonSeries `json:"series"`
	Notes   []string     `json:"notes,omitempty"`
}

// FormatJSON emits the result as a single machine-readable JSON object
// (one line): experiment id, sweep points, and per-series seconds plus
// ns/op. Benchmark trajectories (BENCH_*.json) are recorded in this form.
func (r *Result) FormatJSON(w io.Writer) error {
	out := jsonResult{
		ID:      r.ID,
		Title:   r.Title,
		XLabel:  r.XLabel,
		Workers: r.Workers,
		Shards:  r.Shards,
		Points:  r.X,
		Series:  make([]jsonSeries, len(r.Series)),
		Notes:   r.Notes,
	}
	for i, s := range r.Series {
		ns := make([]float64, len(s.Seconds))
		for j, secs := range s.Seconds {
			ns[j] = secs * 1e9
		}
		out.Series[i] = jsonSeries{Name: s.Name, Seconds: s.Seconds, NsPerOp: ns, Allocs: s.Allocs}
	}
	return json.NewEncoder(w).Encode(out)
}

// crossNote derives the paper-style observations from two series: average
// speedup over the sweep and the crossover point where the incremental
// algorithm stops winning.
func crossNote(x []string, inc, batch Series) string {
	speedAt := func(i int) float64 {
		if inc.Seconds[i] == 0 {
			return 0
		}
		return batch.Seconds[i] / inc.Seconds[i]
	}
	cross := "none within sweep"
	for i := range x {
		if speedAt(i) < 1 {
			cross = x[i]
			break
		}
	}
	var tot float64
	for i := range x {
		tot += speedAt(i)
	}
	return fmt.Sprintf("%s vs %s: avg speedup %.1fx, first loss at %s",
		inc.Name, batch.Name, tot/float64(len(x)), cross)
}

// Figures lists the available experiment IDs in order.
func Figures() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID ("8a".."8p", "unit", "opt").
func Run(id string, cfg Config) (*Result, error) {
	fn, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(Figures(), ", "))
	}
	res, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	res.Workers = cfg.workers()
	res.Shards = cfg.shards()
	return res, nil
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, id := range Figures() {
		res, err := Run(id, cfg)
		if err != nil {
			return err
		}
		if err := res.Format(w); err != nil {
			return err
		}
	}
	return nil
}
