package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incgraph"
)

// runResult is the merged outcome of one scenario run, ready for
// reporting, JSON output, and contract checks.
type runResult struct {
	Scenario string        `json:"scenario"`
	Clients  int           `json:"clients"`
	Duration time.Duration `json:"duration"`

	Phases []phaseStats `json:"phases"`

	Hangs       int             `json:"hangs"`
	DeadWorkers int             `json:"dead_workers"`
	Reconnects  int             `json:"reconnects,omitempty"`   // fault-scenario redials
	FaultDetail string          `json:"fault_detail,omitempty"` // what the fault driver did
	SlowCuts    []time.Duration `json:"slow_cuts,omitempty"`    // per slow client; 0 = never cut

	ParityChecked bool   `json:"parity_checked"`
	ParityDetail  string `json:"parity_detail,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// phaseStats aggregates one phase (steady / spike / post) per op class.
type phaseStats struct {
	Name    string       `json:"name"`
	Seconds float64      `json:"seconds"`
	Classes []classStats `json:"classes"`
	Sheds   int          `json:"sheds"`
	hists   map[string]*hist
}

type classStats struct {
	Class    string        `json:"class"`
	Admitted int           `json:"admitted"`
	Shed     int           `json:"shed"`
	Errs     int           `json:"errs"`
	PerSec   float64       `json:"per_sec"`
	P50      time.Duration `json:"p50"`
	P99      time.Duration `json:"p99"`
	P999     time.Duration `json:"p999"`
	Mean     time.Duration `json:"mean"`
}

// addrBook is the shared daemon address. The failover driver swaps it
// to the promoted standby mid-run; reconnecting workers, the soak
// sampler, and the parity check all dial whatever is current.
type addrBook struct {
	mu   sync.Mutex
	addr string
}

func (a *addrBook) get() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addr
}

func (a *addrBook) set(addr string) {
	a.mu.Lock()
	a.addr = addr
	a.mu.Unlock()
}

// runEnv is the state one scenario run shares across its workers and
// drivers: the (swappable) daemon address, the failover pause flag, and
// the optional soak sampler.
type runEnv struct {
	book     *addrBook
	paused   atomic.Bool
	soak     *soakSampler
	faulty   bool // fault scenario: reconnect through transport errors
	opBudget time.Duration
	epoch    time.Time
}

// runOpts is the CLI side of a run: budgets, the parity check, the
// fault-drill endpoints, and soak sampling.
type runOpts struct {
	opBudget     time.Duration
	parity       bool
	failoverAddr string // standby to promote on fault.action=failover
	faultExec    string // shell command that kills the primary
	soakEvery    time.Duration
}

// runScenario drives sc against addr and returns the merged result.
// opts.parity additionally replays every admitted commit onto an empty
// graph and requires the daemon's post-storm graph to match it and the
// daemon's answers to match a from-scratch SCC of it byte for byte —
// valid only when the daemon started empty and loadgen is its only client.
func runScenario(addr string, sc *Scenario, opts runOpts, logf func(string, ...any)) (*runResult, error) {
	epoch := time.Now().Add(time.Duration(sc.Warmup))
	stop := make(chan struct{})
	spikeStop := make(chan struct{})

	env := &runEnv{
		book:     &addrBook{addr: addr},
		faulty:   sc.Fault.Action != "",
		opBudget: opts.opBudget,
		epoch:    epoch,
	}
	if opts.soakEvery > 0 {
		env.soak = newSoakSampler(env.book)
	}

	var wg sync.WaitGroup
	workers := make([]*worker, 0, sc.Clients)
	var werr error
	for i := 0; i < sc.Clients; i++ {
		w, err := newWorker(i, env, sc, int64(1000+i))
		if err != nil {
			werr = err
			break
		}
		workers = append(workers, w)
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(stop)
		}(w)
	}
	if werr != nil {
		close(stop)
		wg.Wait()
		return nil, fmt.Errorf("connect workers: %w", werr)
	}

	// Slow clients run for the whole scenario.
	slowCuts := make([]time.Duration, sc.SlowClients)
	slowErrs := make([]error, sc.SlowClients)
	for i := 0; i < sc.SlowClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			slowCuts[i], slowErrs[i] = slowClient(addr, stop)
		}(i)
	}

	// The spike: Clients*Multiplier extra workers join for the window.
	var spikeWorkers []*worker
	var spikeMu sync.Mutex
	if sc.Spike.Multiplier > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-stop:
				return
			case <-time.After(time.Until(epoch.Add(time.Duration(sc.Spike.At)))):
			}
			logf("spike: +%d clients for %v", sc.Clients*sc.Spike.Multiplier, sc.Spike.Duration)
			var swg sync.WaitGroup
			for i := 0; i < sc.Clients*sc.Spike.Multiplier; i++ {
				w, err := newWorker(10_000+i, env, sc, int64(20_000+i))
				if err != nil {
					continue // accept-shed during overload is the contract working
				}
				spikeMu.Lock()
				spikeWorkers = append(spikeWorkers, w)
				spikeMu.Unlock()
				swg.Add(1)
				go func(w *worker) {
					defer swg.Done()
					w.run(spikeStop)
				}(w)
			}
			select {
			case <-stop:
			case <-time.After(time.Until(epoch.Add(time.Duration(sc.Spike.At + sc.Spike.Duration)))):
			}
			close(spikeStop)
			swg.Wait()
		}()
	}

	// The soak sampler emits periodic time-series lines; the fault driver
	// runs the scenario's failover mid-storm.
	if env.soak != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env.soak.run(stop, opts.soakEvery, epoch)
		}()
	}
	var faultErr error
	var faultDetail string
	if sc.Fault.Action != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			faultDetail, faultErr = runFault(sc, env, opts, stop, logf)
		}()
	}

	time.Sleep(time.Until(epoch.Add(time.Duration(sc.Duration))))
	close(stop)
	wg.Wait()

	spikeMu.Lock()
	all := append(append([]*worker{}, workers...), spikeWorkers...)
	spikeMu.Unlock()

	res := merge(sc, all, slowCuts)
	res.FaultDetail = faultDetail
	if faultErr != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("fault driver: %v", faultErr))
	}
	for _, err := range slowErrs {
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("slow client: %v", err))
		}
	}
	check(sc, res)
	if opts.parity {
		res.ParityChecked = true
		// After a failover the promoted standby is the daemon of record;
		// the book points at whoever must hold every acked commit now.
		if err := verifyParity(env.book.get(), all); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("parity: %v", err))
		} else {
			res.ParityDetail = "daemon state matches a from-scratch build over the admitted commits"
		}
	}
	return res, nil
}

// phaseOf buckets a sample offset into the scenario's phases. Warmup
// samples (negative offsets) return "".
func phaseOf(sc *Scenario, at Duration) string {
	if at < 0 {
		return ""
	}
	if sc.Spike.Multiplier > 0 {
		switch {
		case at < sc.Spike.At:
			return "steady"
		case at < sc.Spike.At+sc.Spike.Duration:
			return "spike"
		default:
			return "post"
		}
	}
	if sc.Fault.Action != "" {
		if at < sc.Fault.At {
			return "pre"
		}
		return "post"
	}
	return "steady"
}

func phaseSeconds(sc *Scenario, name string) float64 {
	d := sc.Duration
	if sc.Spike.Multiplier > 0 {
		switch name {
		case "steady":
			d = sc.Spike.At
		case "spike":
			d = sc.Spike.Duration
		case "post":
			d = sc.Duration - sc.Spike.At - sc.Spike.Duration
		}
	} else if sc.Fault.Action != "" {
		switch name {
		case "pre":
			d = sc.Fault.At
		case "post":
			d = sc.Duration - sc.Fault.At
		}
	}
	return time.Duration(d).Seconds()
}

func merge(sc *Scenario, workers []*worker, slowCuts []time.Duration) *runResult {
	res := &runResult{Scenario: sc.Name, Clients: sc.Clients, Duration: time.Duration(sc.Duration), SlowCuts: slowCuts}
	phases := map[string]*phaseStats{}
	order := []string{"steady"}
	if sc.Spike.Multiplier > 0 {
		order = []string{"steady", "spike", "post"}
	} else if sc.Fault.Action != "" {
		order = []string{"pre", "post"}
	}
	for _, name := range order {
		phases[name] = &phaseStats{Name: name, Seconds: phaseSeconds(sc, name), hists: map[string]*hist{}}
	}
	counts := map[string]map[string]*classStats{} // phase -> class -> stats
	for _, name := range order {
		counts[name] = map[string]*classStats{}
	}
	for _, w := range workers {
		res.Hangs += w.hangs
		res.Reconnects += w.reconnects
		if w.dead {
			res.DeadWorkers++
		}
		for _, s := range w.samples {
			name := phaseOf(sc, Duration(s.at))
			ph, ok := phases[name]
			if !ok {
				continue // warmup, or a sample straggling past the run end
			}
			cs := counts[name][s.class]
			if cs == nil {
				cs = &classStats{Class: s.class}
				counts[name][s.class] = cs
			}
			switch {
			case s.shed:
				cs.Shed++
				ph.Sheds++
			case s.err:
				cs.Errs++
			default:
				cs.Admitted++
				h := ph.hists[s.class]
				if h == nil {
					h = newHist()
					ph.hists[s.class] = h
				}
				h.record(s.dur)
			}
		}
	}
	for _, name := range order {
		ph := phases[name]
		for class, cs := range counts[name] {
			if h := ph.hists[class]; h != nil {
				cs.P50, cs.P99, cs.P999 = h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)
				cs.Mean = h.mean()
			}
			if ph.Seconds > 0 {
				cs.PerSec = float64(cs.Admitted) / ph.Seconds
			}
			ph.Classes = append(ph.Classes, *cs)
		}
		sort.Slice(ph.Classes, func(i, j int) bool { return ph.Classes[i].Class < ph.Classes[j].Class })
		res.Phases = append(res.Phases, *ph)
	}
	return res
}

// check asserts the degradation contract and appends violations.
func check(sc *Scenario, res *runResult) {
	if res.Hangs > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d ops hung past the op budget: overload must be an explicit reply, never a stall", res.Hangs))
	}
	var errs int
	byPhase := map[string]*phaseStats{}
	for i := range res.Phases {
		ph := &res.Phases[i]
		byPhase[ph.Name] = ph
		for _, cs := range ph.Classes {
			errs += cs.Errs
			if sc.Check.P99Max > 0 && cs.P99 > time.Duration(sc.Check.P99Max) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s/%s: p99 %v of admitted ops exceeds bound %v", ph.Name, cs.Class, cs.P99, sc.Check.P99Max))
			}
		}
	}
	if errs > sc.Check.MaxErrs {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d non-shed op errors (tolerated: %d)", errs, sc.Check.MaxErrs))
	}
	if spike := byPhase["spike"]; spike != nil {
		steady := byPhase["steady"]
		sRate, kRate := admittedPerSec(steady), admittedPerSec(spike)
		if sc.Check.MinSpikeTputFrac > 0 && kRate < sc.Check.MinSpikeTputFrac*sRate {
			res.Violations = append(res.Violations,
				fmt.Sprintf("throughput collapsed under the spike: %.0f/s vs steady %.0f/s (min frac %.2f)",
					kRate, sRate, sc.Check.MinSpikeTputFrac))
		}
		if sc.Check.RequireShedsInSpike && spike.Sheds == 0 {
			res.Violations = append(res.Violations,
				"spike produced no sheds: the run did not actually overload the daemon (lower its gate limits)")
		}
	}
	if sc.Fault.Action != "" && res.DeadWorkers > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d workers died during the %s drill: every worker must reconnect and keep serving",
				res.DeadWorkers, sc.Fault.Action))
	}
	if sc.ExpectCutWithin > 0 {
		for i, cut := range res.SlowCuts {
			if cut == 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("slow client %d was never cut", i))
			} else if cut > time.Duration(sc.ExpectCutWithin) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("slow client %d cut after %v (want within %v)", i, cut, sc.ExpectCutWithin))
			}
		}
	}
}

func admittedPerSec(ph *phaseStats) float64 {
	if ph == nil || ph.Seconds <= 0 {
		return 0
	}
	var n int
	for _, cs := range ph.Classes {
		n += cs.Admitted
	}
	return float64(n) / ph.Seconds
}

// verifyParity replays every acked commit, ordered by its acked post-
// commit generation, onto an empty graph, builds the scenario's answer on
// the result from scratch, and compares both with the daemon's post-storm
// state: node and edge counts from "stat", and the canonical answer dump
// byte for byte. This is the recovery-parity currency of the repo's crash
// drills, pointed at overload: admitted is admitted — whatever was acked
// under the storm must be exactly what the graph holds after it.
func verifyParity(addr string, workers []*worker) error {
	var commits []admittedCommit
	for _, w := range workers {
		commits = append(commits, w.admitted...)
	}
	sort.Slice(commits, func(i, j int) bool { return commits[i].gen < commits[j].gen })
	for i := 1; i < len(commits); i++ {
		if commits[i].gen == commits[i-1].gen {
			return fmt.Errorf("two commits acked the same gen %d: apply order is ambiguous", commits[i].gen)
		}
	}

	g := incgraph.NewGraph()
	for _, c := range commits {
		if err := g.ApplyBatch(c.batch); err != nil {
			return fmt.Errorf("replaying acked commit gen=%d: %v", c.gen, err)
		}
	}
	var want bytes.Buffer
	if err := incgraph.NewSCC(g).WriteAnswer(&want); err != nil {
		return err
	}

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	line := func(cmd string) (string, error) {
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			return "", err
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		reply, err := r.ReadString('\n')
		return strings.TrimSpace(reply), err
	}
	stat, err := line("stat")
	if err != nil {
		return fmt.Errorf("stat: %v", err)
	}
	for _, f := range strings.Fields(stat) {
		if v, ok := strings.CutPrefix(f, "nodes="); ok && v != fmt.Sprint(g.NumNodes()) {
			return fmt.Errorf("daemon has %s nodes, replay built %d (from %d acked commits)", v, g.NumNodes(), len(commits))
		}
		if v, ok := strings.CutPrefix(f, "edges="); ok && v != fmt.Sprint(g.NumEdges()) {
			return fmt.Errorf("daemon has %s edges, replay built %d (from %d acked commits)", v, g.NumEdges(), len(commits))
		}
	}
	reply, err := line("answer " + answerClass)
	if err != nil {
		return fmt.Errorf("answer: %v", err)
	}
	if !strings.HasPrefix(reply, "ok") {
		return fmt.Errorf("answer: %s", reply)
	}
	var got strings.Builder
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		l, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("answer dump: %v", err)
		}
		if strings.TrimSpace(l) == "." {
			break
		}
		got.WriteString(l)
	}
	if got.String() != want.String() {
		return fmt.Errorf("%s answers differ: daemon dump is not byte-identical to a from-scratch build over %d acked commits",
			answerClass, len(commits))
	}
	return nil
}
