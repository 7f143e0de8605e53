// Command loadgen replays JSON-described load scenarios against a
// running incgraphd (a primary or a standby)
// and reports throughput and p50/p99/p999 latency per op class and
// phase. With -check it asserts the degradation contract the daemon's
// admission gates promise: under overload, admitted throughput plateaus
// instead of collapsing, the p99 of admitted ops stays bounded, excess
// load is shed with explicit "err overloaded" replies (never hangs),
// and slow clients are cut without degrading healthy ones. With
// -parity it additionally replays every acked commit onto an empty graph
// and requires the daemon's post-storm graph to match it, and its answers
// a from-scratch build on it byte for byte — admitted is admitted, even
// under the storm.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: loadgen -addr HOST:PORT -scenario NAME [flags]

Replays a load scenario against a running incgraphd and reports
throughput and latency quantiles per op class and phase.

  -addr string       daemon address (required)
  -scenario string   built-in name or path to a scenario JSON file (required)
  -clients int       override the scenario's client count
  -duration dur      override the scenario's run length
  -op-budget dur     per-op reply budget; no reply within it = hang (10s)
  -check             assert the scenario's degradation contract; exit 1 on violation
  -parity            replay the acked commits onto an empty graph and require
                     the daemon's node and edge counts to match it and its
                     answers to match a from-scratch build on it, byte for
                     byte (daemon must start empty, loadgen must be its only
                     writer; after a failover scenario the replay is checked
                     against the promoted standby)
  -failover-addr A   standby to promote when the scenario's fault is failover
  -fault-exec CMD    shell command that kills the primary (failover scenarios)
  -soak              emit one JSON line per sampling window to stdout:
                     throughput, p50/p99, sheds, errs, daemon goroutines/heap
  -soak-every dur    soak sampling window (10s)
  -json FILE         also write the full report as JSON
  -md                print the latency table as markdown (for CI job summaries)
  -list              list built-in scenarios and exit

Built-in scenarios: %s

The daemon decides its own limits: start it with -scc plus admission
flags (-commit-inflight, -commit-queue, -read-inflight, -idle-timeout,
-max-conns) sized so the scenario's overload phase actually overloads.
`, strings.Join(builtinScenarios(), ", "))
}

func main() {
	fs := flag.CommandLine
	fs.Usage = usage
	addr := fs.String("addr", "", "")
	scenario := fs.String("scenario", "", "")
	clients := fs.Int("clients", 0, "")
	duration := fs.Duration("duration", 0, "")
	opBudget := fs.Duration("op-budget", 10*time.Second, "")
	doCheck := fs.Bool("check", false, "")
	doParity := fs.Bool("parity", false, "")
	failoverAddr := fs.String("failover-addr", "", "")
	faultExec := fs.String("fault-exec", "", "")
	soak := fs.Bool("soak", false, "")
	soakEvery := fs.Duration("soak-every", 10*time.Second, "")
	jsonPath := fs.String("json", "", "")
	markdown := fs.Bool("md", false, "")
	list := fs.Bool("list", false, "")
	flag.Parse()

	if *list {
		for _, name := range builtinScenarios() {
			sc, err := loadScenario(name)
			if err != nil {
				fmt.Printf("%-16s (broken: %v)\n", name, err)
				continue
			}
			fmt.Printf("%-16s %s\n", name, sc.Description)
		}
		return
	}
	if *addr == "" || *scenario == "" {
		usage()
		os.Exit(2)
	}
	sc, err := loadScenario(*scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if *duration > 0 {
		sc.Duration = Duration(*duration)
		if sc.Spike.Multiplier > 0 && sc.Spike.At+sc.Spike.Duration > sc.Duration {
			fmt.Fprintf(os.Stderr, "loadgen: -duration %v cuts off the scenario's spike window\n", *duration)
			os.Exit(2)
		}
	}

	if sc.Fault.Action == "failover" && (*failoverAddr == "" || *faultExec == "") {
		fmt.Fprintln(os.Stderr, "loadgen: a failover scenario needs -failover-addr and -fault-exec")
		os.Exit(2)
	}
	opts := runOpts{
		opBudget:     *opBudget,
		parity:       *doParity,
		failoverAddr: *failoverAddr,
		faultExec:    *faultExec,
	}
	if *soak {
		opts.soakEvery = *soakEvery
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	}
	logf("scenario %s against %s: %d clients for %v (+%v warmup)",
		sc.Name, *addr, sc.Clients, sc.Duration, sc.Warmup)
	res, err := runScenario(*addr, sc, opts, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}

	if *markdown {
		printMarkdown(os.Stdout, res)
	} else {
		printText(os.Stdout, res)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: write -json:", err)
			os.Exit(1)
		}
	}
	if *doCheck && len(res.Violations) > 0 {
		os.Exit(1)
	}
}

func printText(w *os.File, res *runResult) {
	fmt.Fprintf(w, "scenario %s: %d clients, %v\n", res.Scenario, res.Clients, res.Duration)
	for _, ph := range res.Phases {
		fmt.Fprintf(w, "phase %-6s (%.1fs, %d sheds)\n", ph.Name, ph.Seconds, ph.Sheds)
		for _, cs := range ph.Classes {
			fmt.Fprintf(w, "  %-6s %6d admitted %7.1f/s  p50=%-9v p99=%-9v p999=%-9v shed=%d errs=%d\n",
				cs.Class, cs.Admitted, cs.PerSec, cs.P50, cs.P99, cs.P999, cs.Shed, cs.Errs)
		}
	}
	fmt.Fprintf(w, "hangs=%d dead_workers=%d reconnects=%d\n", res.Hangs, res.DeadWorkers, res.Reconnects)
	if res.FaultDetail != "" {
		fmt.Fprintln(w, "fault:", res.FaultDetail)
	}
	for i, cut := range res.SlowCuts {
		if cut > 0 {
			fmt.Fprintf(w, "slow client %d cut after %v\n", i, cut.Round(time.Millisecond))
		} else {
			fmt.Fprintf(w, "slow client %d never cut\n", i)
		}
	}
	if res.ParityChecked && res.ParityDetail != "" {
		fmt.Fprintln(w, "parity:", res.ParityDetail)
	}
	printViolations(w, res)
}

// printMarkdown renders the latency table for CI job summaries.
func printMarkdown(w *os.File, res *runResult) {
	fmt.Fprintf(w, "### loadgen: %s (%d clients, %v)\n\n", res.Scenario, res.Clients, res.Duration)
	fmt.Fprintln(w, "| phase | op | admitted | ops/s | p50 | p99 | p999 | shed | errs |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, ph := range res.Phases {
		for _, cs := range ph.Classes {
			fmt.Fprintf(w, "| %s | %s | %d | %.1f | %v | %v | %v | %d | %d |\n",
				ph.Name, cs.Class, cs.Admitted, cs.PerSec, cs.P50, cs.P99, cs.P999, cs.Shed, cs.Errs)
		}
	}
	fmt.Fprintf(w, "\nhangs=%d dead_workers=%d reconnects=%d", res.Hangs, res.DeadWorkers, res.Reconnects)
	if res.FaultDetail != "" {
		fmt.Fprintf(w, " (%s)", res.FaultDetail)
	}
	if res.ParityChecked {
		if res.ParityDetail != "" {
			fmt.Fprint(w, " parity=ok")
		} else {
			fmt.Fprint(w, " parity=FAILED")
		}
	}
	fmt.Fprintln(w)
	printViolations(w, res)
}

func printViolations(w *os.File, res *runResult) {
	if len(res.Violations) == 0 {
		return
	}
	sort.Strings(res.Violations)
	fmt.Fprintf(w, "\n%d contract violations:\n", len(res.Violations))
	for _, v := range res.Violations {
		fmt.Fprintln(w, "  -", v)
	}
}
