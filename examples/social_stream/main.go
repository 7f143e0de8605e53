// Social-stream maintenance: a LiveJournal-style social graph receives a
// live stream of follow/unfollow events while two standing queries stay
// fresh incrementally — community structure via IncSCC and a keyword search
// via IncKWS. This is the "frequent small ΔG" regime the paper motivates:
// recomputation per event would be wasteful, incremental maintenance is
// nearly free.
//
// Run with: go run ./examples/social_stream [-workers N]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"incgraph"
)

func main() {
	workers := flag.Int("workers", 0, "engine worker pool size (0 = all cores, 1 = sequential)")
	flag.Parse()

	// A synthetic social graph: 77% of members sit in one giant mutually-
	// reachable community, like LiveJournal's giant SCC (Exp-1(3) of the
	// paper).
	g := incgraph.SyntheticGraph(incgraph.GraphSpec{
		Nodes:        4000,
		Edges:        20000,
		Labels:       40,
		GiantSCCFrac: 0.77,
		Seed:         7,
	})
	// Clones inherit the setting, so both standing queries below repair
	// their answers on the parallel path.
	g.SetParallelism(*workers)
	fmt.Printf("social graph: %d members, %d follow edges (%d workers)\n",
		g.NumNodes(), g.NumEdges(), g.Parallelism())

	// Standing query 1: community structure.
	scc := incgraph.NewSCC(g.Clone())
	fmt.Printf("communities: %d strongly connected components\n", scc.Size())

	// Standing query 2: members within 2 hops of both interest labels.
	q := incgraph.KWSQuery{Keywords: []string{"l1", "l2"}, Bound: 2}
	kws, err := incgraph.NewKWS(g.Clone(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("keyword roots (%v, b=%d): %d\n", q.Keywords, q.Bound, kws.Size())

	// The event stream: bursts of follows/unfollows (ρ = 1, like the
	// paper's stable-size workloads).
	fmt.Println("\nprocessing 10 bursts of 200 events each:")
	var sccTotal, kwsTotal time.Duration
	for burst := 0; burst < 10; burst++ {
		events := incgraph.RandomUpdates(scc.Graph(), incgraph.UpdateSpec{
			Count:       200,
			InsertRatio: 0.5,
			Locality:    1.0,
			Seed:        int64(1000 + burst),
		})

		start := time.Now()
		ds, err := scc.Apply(events)
		if err != nil {
			log.Fatal(err)
		}
		sccTotal += time.Since(start)

		// The KWS index owns a different clone: rebuild the same events
		// against its graph state.
		kwsEvents := incgraph.RandomUpdates(kws.Graph(), incgraph.UpdateSpec{
			Count:       200,
			InsertRatio: 0.5,
			Locality:    1.0,
			Seed:        int64(1000 + burst),
		})
		start = time.Now()
		dk, err := kws.Apply(kwsEvents)
		if err != nil {
			log.Fatal(err)
		}
		kwsTotal += time.Since(start)

		fmt.Printf("  burst %2d: communities %5d (+%d −%d) | keyword roots %4d (+%d −%d)\n",
			burst+1, scc.Size(), len(ds.Added), len(ds.Removed),
			kws.Size(), len(dk.Added), len(dk.Removed))
	}
	fmt.Printf("\nincremental maintenance time over 2000 events: SCC %v, KWS %v\n", sccTotal, kwsTotal)

	// Contrast with the naive standing-query strategy: recomputing after
	// every event.
	start := time.Now()
	incgraph.SCCOf(scc.Graph())
	one := time.Since(start)
	fmt.Printf("one batch Tarjan recomputation: %v — per-event recomputation would cost ~%v\n",
		one, one*2000)
}
