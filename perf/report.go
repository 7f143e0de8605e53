package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// summary is one metric over the repeats of one workload.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// workloadSet is every metric of one workload: the end-to-end ones over
// the untraced repeats, the per-layer ones from one traced run.
type workloadSet struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Problems  []string           `json:"problems,omitempty"`
	TopLayer  string             `json:"top_layer"`
	Metrics   map[string]summary `json:"metrics"`
}

type resultSet struct {
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Repeats   int           `json:"repeats"`
	Workloads []workloadSet `json:"workloads"`
}

func (s *resultSet) ok() bool {
	for _, w := range s.Workloads {
		if w.Failed > 0 || len(w.Problems) > 0 {
			return false
		}
	}
	return true
}

// runSet runs every selected workload repeats times untraced and once
// traced, on the same seed: the repeats measure the machine, not the data.
func (b *bench) runSet(selected []workload, seed int64, repeats int) (*resultSet, error) {
	set := &resultSet{Seed: seed, Seconds: b.seconds, Repeats: repeats}
	for i := range selected {
		w := &selected[i]
		ws := workloadSet{Workload: w.name, Why: b.decl.why(w.name), Metrics: make(map[string]summary)}
		samples := make(map[string][]float64)
		add := func(res *result) {
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ws.Problems = append(ws.Problems, res.Problems...)
		}
		for rep := 0; rep < repeats; rep++ {
			fmt.Fprintf(os.Stderr, "perf: %s: run %d of %d\n", w.name, rep+1, repeats)
			res, err := b.runOnce(w, seed, false)
			if err != nil {
				return nil, err
			}
			add(res)
			for _, def := range b.decl.EndToEnd {
				samples[def.Name] = append(samples[def.Name], res.Metrics[def.Name])
			}
		}
		fmt.Fprintf(os.Stderr, "perf: %s: traced run\n", w.name)
		res, err := b.runOnce(w, seed, true)
		if err != nil {
			return nil, err
		}
		add(res)
		ws.TopLayer = res.TopLayer
		for _, def := range b.decl.PerLayer {
			samples[def.Name] = append(samples[def.Name], res.Metrics[def.Name])
		}
		for name, xs := range samples {
			ws.Metrics[name] = summarize(xs)
		}
		set.Workloads = append(set.Workloads, ws)
	}
	return set, nil
}

// printTable prints every metric of every workload by name.
func (s *resultSet) printTable(w io.Writer, decl *declaration) {
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", ws.Workload, ws.Why)
		fmt.Fprintf(w, "ops_attempted %d, ops_failed %d\n", ws.Attempted, ws.Failed)
		for _, p := range ws.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", p)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tbetter\tmedian\tmin\tmax\tn")
		for _, defs := range [][]metricDef{decl.EndToEnd, decl.PerLayer} {
			for _, def := range defs {
				m := ws.Metrics[def.Name]
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%d\n", def.Name, def.Unit, def.Better, m.Median, m.Min, m.Max, m.N)
			}
		}
		tw.Flush()
		fmt.Fprintln(w, ws.TopLayer)
	}
}

// isExactCount reports the per-layer metrics that count, not time: two
// runs of the same build on the same seed must agree on them bit for bit.
// work_per_update is not among them: on the seed commit Meter.Total of the
// scc, rpq and iso engines differs in the third or fourth digit between
// two runs of the same batches (their repairs walk Go maps, whose order
// is not fixed, and the work done depends on the order).
func isExactCount(name string) bool {
	for _, suffix := range []string{".wal_bytes_per_update", ".snapshot_bytes_per_edge", ".fsyncs_per_commit", ".delta_per_update"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// aaRow compares one metric of one workload between the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much worse the worse of the two sets is than the
	// other, as a share of the better one.
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
	Breach bool    `json:"breach"`
}

// runAA runs two complete sets on the same build and checks that they
// agree: end-to-end metrics within their bounds, exact counts exactly.
func (b *bench) runAA(selected []workload, seed int64, repeats int) error {
	var sets [2]*resultSet
	for i := range sets {
		fmt.Fprintf(os.Stderr, "perf: A/A set %d of 2\n", i+1)
		var err error
		if sets[i], err = b.runSet(selected, seed, repeats); err != nil {
			return err
		}
	}
	var rows []aaRow
	breaches := 0
	for i, wa := range sets[0].Workloads {
		wb := sets[1].Workloads[i]
		for _, def := range b.decl.EndToEnd {
			x, y := wa.Metrics[def.Name].Median, wb.Metrics[def.Name].Median
			row := aaRow{Workload: wa.Workload, Metric: def.Name, A: x, B: y, Bound: def.Bound}
			row.Worse = math.Max(x, y)/math.Min(x, y) - 1
			row.Breach = row.Worse > def.Bound
			rows = append(rows, row)
		}
		for _, def := range b.decl.PerLayer {
			if !isExactCount(def.Name) {
				continue
			}
			x, y := wa.Metrics[def.Name].Median, wb.Metrics[def.Name].Median
			rows = append(rows, aaRow{Workload: wa.Workload, Metric: def.Name, A: x, B: y, Exact: true, Breach: x != y})
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\t")
	for _, row := range rows {
		bound, verdict := fmt.Sprintf("%.2f", row.Bound), ""
		if row.Exact {
			bound = "exact"
		}
		if row.Breach {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.4f\t%s\t%s\n", row.Workload, row.Metric, row.A, row.B, row.Worse, bound, verdict)
	}
	tw.Flush()
	ok := sets[0].ok() && sets[1].ok()
	if err := writeJSON(filepath.Join(b.root, "perf", "out", "aa.json"), struct {
		Rows []aaRow       `json:"rows"`
		Sets [2]*resultSet `json:"sets"`
	}{rows, sets}); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d metrics differ between two sets of the same build by more than their bound", breaches)
	}
	if !ok {
		return fmt.Errorf("A/A: a workload failed its correctness gate or a validity guard")
	}
	return nil
}
