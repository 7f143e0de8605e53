// Command benchcmp is the CI bench-regression gate: it diffs a fresh
// cmd/benchmark -json run against a committed BENCH_*.json baseline and
// fails (exit 1) on regression, printing a comparison table (markdown
// with -md, for $GITHUB_STEP_SUMMARY).
//
// Two signals, two thresholds, because they behave differently on a
// noisy single-core CI runner:
//
//   - Allocation counts are near-deterministic run to run, so they are
//     gated strictly: a point regresses when
//     current > baseline·allocRatio + allocSlack (the slack absorbs the
//     runtime's own incidental allocations around tiny phases).
//     Baselines recorded before allocs existed skip this gate.
//   - Wall clock swings with the runner, so it is gated generously and on
//     the geometric mean of per-point ratios across a series, not on any
//     single point; only a consistent slowdown fails the gate.
//
// Experiments present in the baseline but missing from the fresh run fail
// the gate (a silently dropped benchmark is a regression of coverage);
// new experiments in the fresh run are reported and pass.
//
// A third gate is absolute rather than differential: when the fresh run
// carries the "cluster" experiment, the geometric mean of the per-point
// Cluster2w/SingleProc overhead must stay under -cluster-overhead
// (default 2.5x). This pins the distributed-commit budget — the distributed
// two-phase apply must cost less than 2.5x the single-process apply on
// the same sweep — against the run's own measurements, so a slow runner
// cannot mask protocol bloat the way it can mask a wall-clock diff.
//
// Usage:
//
//	benchcmp -baseline BENCH_5.json -current fresh.json
//	         [-time-ratio 2.5] [-alloc-ratio 1.15] [-alloc-slack 256]
//	         [-cluster-overhead 2.5] [-md]
//
// # Re-baselining
//
// The baseline is a committed artifact, so an intentional performance
// change (or a new benchmark shape) is recorded by regenerating it, not
// by loosening the gates:
//
//	go run ./cmd/benchmark -json > BENCH_N.json   # on a quiet machine
//	git add BENCH_N.json                          # commit alongside the change
//
// and pointing CI's -baseline at the new file. Record the baseline on
// the same hardware class CI uses where possible; the wall-clock gate is
// generous precisely so a baseline from a faster machine doesn't fail
// every run, but allocation counts must come from the same code revision
// you intend to gate against.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// series mirrors the jsonSeries half of cmd/benchmark's output.
type series struct {
	Name    string    `json:"name"`
	NsPerOp []float64 `json:"ns_per_op"`
	Allocs  []uint64  `json:"allocs"`
}

// experiment mirrors one cmd/benchmark -json line.
type experiment struct {
	ID     string   `json:"id"`
	Points []string `json:"points"`
	Series []series `json:"series"`
}

// row is one (experiment, series) comparison in the report.
type row struct {
	id, name   string
	timeRatio  float64 // geometric mean current/baseline ns_per_op
	allocRatio float64 // worst per-point current/baseline alloc ratio
	allocGated bool    // baseline had alloc counts
	points     int
	status     string
	regressed  bool
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed BENCH_*.json baseline (required)")
		currentPath  = flag.String("current", "", "fresh cmd/benchmark -json output (required)")
		timeRatio    = flag.Float64("time-ratio", 2.5, "fail when a series' geomean wall-clock ratio exceeds this (generous: CI runners are noisy)")
		timeFloor    = flag.Float64("time-floor-ns", 1e6, "exclude points whose baseline is below this from the wall-clock geomean (micro-phases are scheduler noise; their allocs are still gated)")
		allocRatio   = flag.Float64("alloc-ratio", 1.15, "fail when any point's alloc count exceeds baseline*ratio+slack (strict: allocs are near-deterministic)")
		allocSlack   = flag.Int64("alloc-slack", 256, "absolute alloc headroom per point, absorbing runtime noise around tiny phases")
		overhead     = flag.Float64("cluster-overhead", 2.5, "fail when the cluster experiment's Cluster2w/SingleProc geomean exceeds this (0 disables)")
		md           = flag.Bool("md", false, "emit a markdown table (for the CI job summary)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, describeLoadError("baseline", *baselinePath, err))
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, describeLoadError("current", *currentPath, err))
		os.Exit(2)
	}
	rows, regressed := compare(base, cur, gates{
		timeRatio:  *timeRatio,
		timeFloor:  *timeFloor,
		allocRatio: *allocRatio,
		allocSlack: *allocSlack,
	})
	if r, ok := clusterOverheadGate(cur, *overhead); ok {
		rows = append(rows, r)
		regressed = regressed || r.regressed
	}
	render(os.Stdout, rows, *md, *timeRatio, *allocRatio)
	if regressed {
		fmt.Fprintln(os.Stderr, "benchcmp: REGRESSION against baseline")
		os.Exit(1)
	}
}

// describeLoadError turns a load failure into an actionable message. A
// missing or unreadable baseline is the common operational mistake (new
// checkout, renamed BENCH_*.json, forgotten re-baseline after adding a
// benchmark), so that case spells out how to record one instead of
// leaking a bare open error from the middle of a CI log.
func describeLoadError(role, path string, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchcmp: cannot load %s %s: %v", role, path, err)
	if role == "baseline" {
		if os.IsNotExist(err) {
			fmt.Fprintf(&b, "\n\nNo baseline exists at that path. Record one on a quiet machine:\n\n"+
				"\tgo run ./cmd/benchmark -json > %s\n\n"+
				"commit it, and point -baseline at the committed file. See the\n"+
				"re-baselining section in 'go doc ./cmd/benchcmp'.", path)
		} else {
			fmt.Fprintf(&b, "\n\nThe baseline is unreadable. If it is stale or corrupt, regenerate it\n"+
				"(go run ./cmd/benchmark -json > %s) and commit the result; see the\n"+
				"re-baselining section in 'go doc ./cmd/benchcmp'.", path)
		}
	}
	return b.String()
}

// load parses a JSON-lines benchmark file into id-keyed experiments.
func load(path string) (map[string]experiment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, path)
}

func parse(r io.Reader, name string) (map[string]experiment, error) {
	out := make(map[string]experiment)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e experiment
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, line, err)
		}
		if e.ID == "" {
			return nil, fmt.Errorf("%s:%d: experiment without id", name, line)
		}
		out[e.ID] = e
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no experiments", name)
	}
	return out, nil
}

// gates bundles the regression thresholds.
type gates struct {
	timeRatio  float64
	timeFloor  float64
	allocRatio float64
	allocSlack int64
}

// compare builds the report rows and the overall verdict.
func compare(base, cur map[string]experiment, g gates) ([]row, bool) {
	ids := make([]string, 0, len(base)+len(cur))
	for id := range base {
		ids = append(ids, id)
	}
	for id := range cur {
		if _, ok := base[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var rows []row
	regressed := false
	for _, id := range ids {
		b, inBase := base[id]
		c, inCur := cur[id]
		switch {
		case !inCur:
			rows = append(rows, row{id: id, status: "missing from current run", regressed: true})
			regressed = true
			continue
		case !inBase:
			rows = append(rows, row{id: id, status: "new (no baseline)"})
			continue
		}
		curSeries := make(map[string]series, len(c.Series))
		for _, s := range c.Series {
			curSeries[s.Name] = s
		}
		baseNames := make(map[string]bool, len(b.Series))
		for _, bs := range b.Series {
			baseNames[bs.Name] = true
			cs, ok := curSeries[bs.Name]
			if !ok {
				rows = append(rows, row{id: id, name: bs.Name, status: "series missing from current run", regressed: true})
				regressed = true
				continue
			}
			r := compareSeries(id, bs, cs, g)
			if r.regressed {
				regressed = true
			}
			rows = append(rows, r)
		}
		// Series present only in the current run (renames, additions) get
		// their own row, like new experiments do — so a rename shows up as
		// one missing and one new series, not a silent disappearance.
		for _, cs := range c.Series {
			if !baseNames[cs.Name] {
				rows = append(rows, row{id: id, name: cs.Name, status: "new series (no baseline)"})
			}
		}
	}
	return rows, regressed
}

// compareSeries gates one series: strict allocs per point, generous
// geomean wall clock over the points above the time floor.
func compareSeries(id string, base, cur series, g gates) row {
	r := row{id: id, name: base.Name, timeRatio: math.NaN(), allocRatio: math.NaN()}
	n := len(base.NsPerOp)
	if len(cur.NsPerOp) < n {
		n = len(cur.NsPerOp)
	}
	r.points = n
	var statuses []string
	if len(cur.NsPerOp) < len(base.NsPerOp) {
		// Fewer points than the baseline is dropped coverage, the same
		// regression class as a missing series — including dropping every
		// point.
		statuses = append(statuses, fmt.Sprintf("POINTS DROPPED (%d vs %d)", len(cur.NsPerOp), len(base.NsPerOp)))
		r.regressed = true
	} else if len(cur.NsPerOp) > len(base.NsPerOp) {
		statuses = append(statuses, fmt.Sprintf("shape grew (%d vs %d points)", len(cur.NsPerOp), len(base.NsPerOp)))
	}
	if n == 0 {
		if len(statuses) == 0 {
			statuses = append(statuses, "no comparable points")
		}
		r.status = strings.Join(statuses, "; ")
		return r
	}
	// Wall clock: geometric mean of per-point ratios over points whose
	// baseline clears the floor — micro-phases measure the scheduler, not
	// the code, and their real signal (allocs) is gated below anyway.
	logSum, counted := 0.0, 0
	for i := 0; i < n; i++ {
		if base.NsPerOp[i] < g.timeFloor || base.NsPerOp[i] <= 0 {
			continue
		}
		if cur.NsPerOp[i] <= 0 {
			// A gated point whose fresh timing vanished is dropped
			// coverage of the wall-clock signal, not an exemption.
			statuses = append(statuses, fmt.Sprintf("TIME COVERAGE DROPPED (point %d reports %v ns)", i, cur.NsPerOp[i]))
			r.regressed = true
			break
		}
		logSum += math.Log(cur.NsPerOp[i] / base.NsPerOp[i])
		counted++
	}
	if counted > 0 {
		r.timeRatio = math.Exp(logSum / float64(counted))
		if r.timeRatio > g.timeRatio {
			statuses = append(statuses, fmt.Sprintf("TIME REGRESSION (%.2fx > %.2fx)", r.timeRatio, g.timeRatio))
			r.regressed = true
		}
	}
	// Allocations: every point individually, when the baseline has them.
	// A current run that LOST its alloc counts while the baseline has them
	// is dropped coverage of the gate's strictest signal — fail, don't
	// silently disarm (only a pre-alloc baseline legitimately skips).
	if len(base.Allocs) >= n && len(cur.Allocs) < n {
		statuses = append(statuses, fmt.Sprintf("ALLOC COVERAGE DROPPED (%d of %d points)", len(cur.Allocs), n))
		r.regressed = true
	}
	if len(base.Allocs) >= n && len(cur.Allocs) >= n {
		r.allocGated = true
		worst := 0.0
		for i := 0; i < n; i++ {
			limit := float64(base.Allocs[i])*g.allocRatio + float64(g.allocSlack)
			ratio := 1.0
			if base.Allocs[i] > 0 {
				ratio = float64(cur.Allocs[i]) / float64(base.Allocs[i])
			}
			if ratio > worst {
				worst = ratio
			}
			if float64(cur.Allocs[i]) > limit {
				statuses = append(statuses, fmt.Sprintf("ALLOC REGRESSION at point %d (%d > %d·%.2f+%d)",
					i, cur.Allocs[i], base.Allocs[i], g.allocRatio, g.allocSlack))
				r.regressed = true
				break
			}
		}
		r.allocRatio = worst
	}
	if len(statuses) == 0 {
		statuses = append(statuses, "ok")
	}
	r.status = strings.Join(statuses, "; ")
	return r
}

// clusterOverheadGate checks the absolute distributed-apply budget: the
// geometric mean over the fresh run's cluster sweep of Cluster2w's cost
// relative to SingleProc's must stay under limit. Both series come from
// the SAME run on the same host, so the ratio is immune to runner-speed
// drift; it moves only when the protocol itself gets cheaper or dearer.
// Returns ok=false when the gate has nothing to say (disabled, or the run
// didn't include the cluster experiment); a cluster experiment that LOST
// one of the two series fails — that's the gate's coverage disappearing.
func clusterOverheadGate(cur map[string]experiment, limit float64) (row, bool) {
	if limit <= 0 {
		return row{}, false
	}
	c, ok := cur["cluster"]
	if !ok {
		return row{}, false
	}
	r := row{id: "cluster", name: "Cluster2w/SingleProc", timeRatio: math.NaN(), allocRatio: math.NaN()}
	var single, dist *series
	for i := range c.Series {
		switch c.Series[i].Name {
		case "SingleProc":
			single = &c.Series[i]
		case "Cluster2w":
			dist = &c.Series[i]
		}
	}
	if single == nil || dist == nil {
		r.status = "OVERHEAD GATE LOST ITS SERIES (need SingleProc and Cluster2w)"
		r.regressed = true
		return r, true
	}
	logSum, counted := 0.0, 0
	for i := 0; i < len(single.NsPerOp) && i < len(dist.NsPerOp); i++ {
		if single.NsPerOp[i] <= 0 || dist.NsPerOp[i] <= 0 {
			continue
		}
		logSum += math.Log(dist.NsPerOp[i] / single.NsPerOp[i])
		counted++
	}
	if counted == 0 {
		r.status = "OVERHEAD GATE HAS NO COMPARABLE POINTS"
		r.regressed = true
		return r, true
	}
	r.points = counted
	r.timeRatio = math.Exp(logSum / float64(counted))
	if r.timeRatio > limit {
		r.status = fmt.Sprintf("CLUSTER OVERHEAD REGRESSION (%.2fx > %.2fx geomean)", r.timeRatio, limit)
		r.regressed = true
	} else {
		r.status = fmt.Sprintf("overhead ok (%.2fx ≤ %.2fx geomean)", r.timeRatio, limit)
	}
	return r, true
}

// render prints the comparison table.
func render(w io.Writer, rows []row, md bool, timeRatio, allocRatio float64) {
	fmtRatio := func(v float64, gated bool) string {
		if math.IsNaN(v) {
			if gated {
				return "—"
			}
			return "n/a"
		}
		return fmt.Sprintf("%.2fx", v)
	}
	if md {
		fmt.Fprintf(w, "### Bench regression gate (time ≤ %.2fx geomean, allocs ≤ %.2fx/point)\n\n", timeRatio, allocRatio)
		fmt.Fprintln(w, "| experiment | series | time (geomean) | allocs (worst) | status |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
		for _, r := range rows {
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s |\n",
				r.id, r.name, fmtRatio(r.timeRatio, true), fmtRatio(r.allocRatio, r.allocGated), r.status)
		}
		return
	}
	tw := 0
	for _, r := range rows {
		if l := len(r.id + "/" + r.name); l > tw {
			tw = l
		}
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-*s  time %-7s  allocs %-7s  %s\n",
			tw, r.id+"/"+r.name, fmtRatio(r.timeRatio, true), fmtRatio(r.allocRatio, r.allocGated), r.status)
	}
}
