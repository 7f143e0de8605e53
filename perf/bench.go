package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. The file is the
// single list of names: perf reads units, directions and bounds from it
// and refuses to emit a line that does not carry exactly those names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// why is the declared reason for a workload.
func (d *declaration) why(workload string) string {
	for _, w := range d.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// bench holds what every run of one invocation shares.
type bench struct {
	// ctx is cancelled by SIGINT and SIGTERM: the daemons die with it.
	ctx       context.Context
	root, bin string
	decl      *declaration
	seconds   float64
	// small marks smoke-test runs; see run.small.
	small bool
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"ops_attempted"`
	Failed    int                `json:"ops_failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// TopLayer is the one-line answer to "where did this commit's time
	// go" (traced runs only).
	TopLayer string `json:"top_layer,omitempty"`
}

// setupSamples is how often a run sets the daemon up; recoverySamples how
// often at most it crashes and restarts it (see recoveryBudget). Both
// metrics are the median over their samples.
const (
	setupSamples    = 7
	recoverySamples = 7
)

// tracedSeconds caps the window a traced run is sized for.
const tracedSeconds = 5

// runOnce runs one workload once: the end-to-end half, and with traced
// also the in-process replays.
func (b *bench) runOnce(w *workload, seed int64, traced bool) (*result, error) {
	tmp := filepath.Join(b.root, "perf", "out", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{ctx: b.ctx, w: w, seed: seed, seconds: b.seconds, small: b.small, bin: b.bin, dir: dir}
	if traced {
		// The traced run replays every commit in-process several times over.
		r.seconds = min(r.seconds, tracedSeconds)
	}
	if err := r.prepare(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	setups, recoveries := setupSamples, recoverySamples
	if traced {
		// The traced run's own numbers do not include these two.
		setups, recoveries = 1, 1
	}
	e2e, err := r.endToEnd(setups, recoveries)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{Workload: w.name, Seed: seed, Metrics: make(map[string]float64)}
	r.e2eMetrics(e2e, res.Metrics)
	fmt.Fprintf(os.Stderr, "perf: %s: seed %d: generated in %.2fs; %d cycles of %d commits in a %.2fs window (sized for %gs)\n",
		w.name, seed, r.genTime.Seconds(), len(e2e.cycles), len(r.s.cycle.batches), e2e.window.Seconds(), r.seconds)
	if traced {
		tr, err := r.tracedReplay()
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", w.name, err)
		}
		res.TopLayer = r.layerMetrics(tr, res.Metrics)
		fmt.Fprintf(os.Stderr, "perf: %s: %s\n", w.name, res.TopLayer)
		if err := writeJSON(filepath.Join(b.root, "perf", "out", "trace-"+w.name+".json"), tr.tr.spans); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed, res.Problems = r.attempted, r.failed, r.problems
	res.Correct = r.failed == 0 && len(r.problems) == 0
	return res, nil
}

// e2eMetrics fills in what the client and the operator saw. The end-to-end
// times are in milliseconds and seconds of the reference machine (see
// pace): every statistic is taken per cycle, divided by the machine's
// slowdown over that cycle, and reported as the median over the cycles —
// every cycle is the same work, and a stretch during which the host took
// the machine away spoils the cycles it falls into, not the run. The
// per-layer times are over the whole window, as the clock read them.
func (r *run) e2eMetrics(out *e2eOut, m map[string]float64) {
	var total, stage, rtt, reads, slowdown []float64
	var rate, commit50, commit95, read50, read95 []float64
	for _, cycle := range out.cycles {
		var commits []float64
		for _, c := range cycle.commits {
			commits, stage, rtt = append(commits, ms(c.total)), append(stage, ms(c.stage)), append(rtt, ms(c.rtt))
		}
		queries := durationsMS(cycle.reads)
		total, reads, slowdown = append(total, commits...), append(reads, queries...), append(slowdown, cycle.slowdown)
		// Closed loop, one writer: commits do not overlap, so the time
		// spent committing is the sum of the latencies.
		rate = append(rate, 1000*float64(len(commits)*r.w.batch)/sum(commits)*cycle.slowdown)
		commit50, commit95 = append(commit50, p50(commits)/cycle.slowdown), append(commit95, p95(commits)/cycle.slowdown)
		read50, read95 = append(read50, p50(queries)/cycle.slowdown), append(read95, p95(queries)/cycle.slowdown)
	}
	m["setup_s"] = median(out.setups)
	m["updates_per_s"] = median(rate)
	m["commit_p50_ms"] = median(commit50)
	m["commit_p95_ms"] = median(commit95)
	m["read_p50_ms"] = median(read50)
	m["read_p95_ms"] = median(read95)
	m["recovery_s"] = median(out.recoveries)
	m["daemon_rss_mb"] = out.rssMB

	m["host.slowdown"] = median(slowdown)
	m["incgraphd.commit_p50_ms"] = p50(total)
	m["incgraphd.commit_p99_ms"] = p99(total)
	m["incgraphd.commit_p999_ms"] = p999(total)
	m["incgraphd.stage_p50_ms"] = p50(stage)
	m["incgraphd.commit_rtt_p50_ms"] = p50(rtt)
	m["incgraphd.read_p99_ms"] = p99(reads)
	m["incgraphd.answer_p50_ms"] = p50(durationsMS(out.answers))
	m["incgraphd.shed_frac"] = out.shedFrac
	m["incgraphd.cpu_ms_per_update"] = ms(out.daemonCPU) / float64(len(total)*r.w.batch)
	m["gen.gen_s"] = r.genTime.Seconds()
	// The share of one core the load generator used during the window:
	// near 1 the driver, not the daemon, was what saturated.
	m["gen.client_cpu_frac"] = out.clientCPU.Seconds() / out.window.Seconds()
	if m["gen.client_cpu_frac"] > 0.7 {
		r.fail(1, "guard: the load generator used %.2f of a core; it, not the daemon, may be the bottleneck", m["gen.client_cpu_frac"])
	}
}

// layerMetrics fills in the per-layer metrics from the traced replay, runs the attribution check, and returns the line
// naming the layer with the largest share of the commit.
func (r *run) layerMetrics(tr *traceOut, m map[string]float64) string {
	spans, self := tr.tr.spans, tr.tr.selfTimes()
	// root[i] is the root span of i; only spans under a timed commit count.
	root := make([]int32, len(spans))
	var commits, appends []float64
	var commitSum, selfSum time.Duration
	selfBy := make(map[string]time.Duration)
	durBy := make(map[string]time.Duration)
	for i, s := range spans {
		root[i] = int32(i)
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		top := spans[root[i]]
		if top.Name != "durable.commit" || int(top.Batch) < tr.warm {
			continue
		}
		selfSum += self[i]
		selfBy[s.Name] += self[i]
		durBy[s.Name] += s.dur()
		switch s.Name {
		case "durable.commit":
			commits = append(commits, ms(s.dur()))
			commitSum += s.dur()
		case "store.wal_append":
			appends = append(appends, ms(s.dur()))
		}
	}
	frac := func(d time.Duration) float64 { return float64(d) / float64(commitSum) }
	timedBatches := float64(len(commits))
	timedUpdates := float64(tr.updates)
	allUpdates := float64(updates(tr.batches))

	m["durable.commit_p50_ms"] = percentile(commits, 0.50)
	m["durable.commit_p99_ms"] = percentile(commits, 0.99)
	m["durable.self_frac"] = frac(selfBy["durable.commit"])
	m["incgraphd.overhead_p50_ms"] = m["incgraphd.commit_p50_ms"] - m["durable.commit_p50_ms"]

	m["store.wal_append_p50_ms"] = percentile(appends, 0.50)
	m["store.wal_append_p99_ms"] = percentile(appends, 0.99)
	// The flush the policy leaves out, from the synced replay of the head.
	m["store.fsync_p50_ms"] = percentile(durationsMS(tr.fsyncs), 0.50)
	m["store.fsyncs_per_commit"] = float64(len(tr.fsyncs)) / float64(len(tr.synced)-tr.warm)
	m["store.wal_bytes_per_update"] = float64(tr.walBytes) / allUpdates
	m["store.snapshot_load_ms"] = ms(tr.snapshotLoad)
	m["store.snapshot_bytes_per_edge"] = float64(tr.snapshotBytes) / float64(r.g.NumEdges())
	m["store.checkpoint_ms"] = ms(tr.checkpoint)
	m["store.replay_us_per_update"] = 1000 * ms(tr.recoverReplay) / allUpdates

	m["graph.validate_us_per_update"] = 1000 * ms(tr.validate) / timedUpdates
	m["graph.apply_us_per_update"] = 1000 * ms(tr.apply) / timedUpdates
	m["graph.prepare_reads_us"] = 1000 * ms(tr.prepare) / timedBatches
	m["graph.clone_ms"] = ms(tr.clone)

	for _, class := range classOrder {
		st := tr.classes[class]
		repairs := durationsMS(st.repairs)
		m[class+".build_ms"] = ms(st.build)
		m[class+".repair_p50_ms"] = percentile(repairs, 0.50)
		m[class+".repair_p99_ms"] = percentile(repairs, 0.99)
		m[class+".share"] = frac(durBy[class+".repair"])
		m[class+".vs_batch"] = float64(st.twinRival) / float64(st.twinApply)
		m[class+".vs_unit"] = float64(st.twinUnit) / float64(st.twinApply)
		m[class+".work_per_update"] = float64(st.work) / float64(st.updates)
		m[class+".delta_per_update"] = float64(st.delta) / float64(st.updates)
		if st.estimates > 0 {
			m["cost."+class+"_prefer_batch_frac"] = float64(st.preferBatch) / float64(st.estimates)
		}
		if st.standing && st.delta == 0 && !r.small {
			r.fail(1, "guard: the %s engine saw zero ΔO over the stream", class)
		}
	}

	// Head of the stream: traced vs untraced, cluster vs local.
	head := len(tr.untraced) - tr.warm
	untraced := percentile(durationsMS(tr.untraced[tr.warm:]), 0.50)
	m["trace.overhead_frac"] = percentile(commits[:head], 0.50)/untraced - 1
	m["cluster.commit_p50_ms"] = percentile(durationsMS(tr.pipe[tr.warm:]), 0.50)
	m["cluster.commit_tcp_p50_ms"] = percentile(durationsMS(tr.tcp[tr.warm:]), 0.50)
	m["cluster.overhead_ratio"] = m["cluster.commit_p50_ms"] / untraced
	m["cluster.place_ms"] = ms(tr.place)

	// Attribution: every nanosecond of a commit span belongs to exactly one
	// span's self time, and the Durable's own share is small.
	r.attempted += 2
	if gap := math.Abs(float64(selfSum-commitSum)) / float64(commitSum); gap > 0.05 {
		r.fail(1, "attribution: self times sum to %.1f%% off the commit spans", 100*gap)
	}
	if f := m["durable.self_frac"]; f >= 0.15 {
		r.fail(1, "attribution: durable.self_frac is %.3f, want < 0.15", f)
	}

	// The layers' shares of the commit: the WAL step is the store's, the
	// apply step's self time (base-graph apply plus PrepareConcurrentReads
	// on every clone) the substrate's, the commit's self time (validation
	// and glue) the Durable's own.
	shares := map[string]float64{
		"store":   frac(durBy["store.wal_append"]),
		"graph":   frac(selfBy["durable.apply_logged"]),
		"durable": frac(selfBy["durable.commit"]),
	}
	for _, class := range r.w.classes {
		shares[class] = frac(durBy[class+".repair"])
	}
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %.0f%%", name, 100*shares[name])
	}
	return fmt.Sprintf("largest share of the commit: %s (%s)", names[0], strings.Join(parts, ", "))
}

// driverLine renders the run as the one JSON object the benchmark driver
// reads, carrying exactly the metrics in defs.
func (res *result) driverLine(defs []metricDef) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, def.Name)
		}
		metrics[def.Name] = value{Value: v, Unit: def.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(line), err
}
