package store

import (
	"bytes"
	"errors"
	"testing"

	"incgraph/internal/gen"
	"incgraph/internal/graph"
)

func parcelGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.Synthetic(gen.GraphSpec{Nodes: 300, Edges: 1200, Labels: 7, GiantSCCFrac: 0.4, Seed: 4})
	g.SetShards(8)
	return g
}

// TestParcelRoundTrip ships every shard through the parcel codec into a
// container graph and requires the re-exported parcels to be
// byte-identical — the property the cluster coordinator's replica
// verification rests on.
func TestParcelRoundTrip(t *testing.T) {
	g := parcelGraph(t)
	container := graph.NewSharded(g.NumShards())
	for s := 0; s < g.NumShards(); s++ {
		parcel, err := EncodeShardParcel(g, s)
		if err != nil {
			t.Fatalf("encode shard %d: %v", s, err)
		}
		st, err := DecodeShardParcel(parcel, s)
		if err != nil {
			t.Fatalf("decode shard %d: %v", s, err)
		}
		if err := container.LoadShard(s, st); err != nil {
			t.Fatalf("load shard %d: %v", s, err)
		}
		back, err := EncodeShardParcel(container, s)
		if err != nil {
			t.Fatalf("re-encode shard %d: %v", s, err)
		}
		if !bytes.Equal(parcel, back) {
			t.Fatalf("shard %d parcel not byte-identical after round trip (%d vs %d bytes)",
				s, len(parcel), len(back))
		}
	}
}

// TestParcelAfterEffects drives the remote phase-1 path: a container graph
// built from parcels applies the exported ShardEffects of a batch and must
// re-export parcels byte-identical to the authoritative graph that applied
// the same batch via ApplyBatch.
func TestParcelAfterEffects(t *testing.T) {
	g := parcelGraph(t)
	container := graph.NewSharded(g.NumShards())
	for s := 0; s < g.NumShards(); s++ {
		parcel, err := EncodeShardParcel(g, s)
		if err != nil {
			t.Fatal(err)
		}
		st, err := DecodeShardParcel(parcel, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := container.LoadShard(s, st); err != nil {
			t.Fatal(err)
		}
	}
	scratch := g.Clone()
	for round := 0; round < 4; round++ {
		b := gen.Updates(scratch, gen.UpdateSpec{Count: 70, InsertRatio: 0.6, Locality: 0.4, Seed: int64(30 + round)})
		if err := scratch.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		effs, ok := g.PlanShardEffects(b)
		if !ok {
			t.Fatalf("round %d: plan failed for a valid batch", round)
		}
		for _, e := range effs {
			want := e.EdgeDelta(g)
			got, err := container.ApplyShardEffects(e)
			if err != nil {
				t.Fatalf("round %d shard %d: %v", round, e.Shard, err)
			}
			if got != want {
				t.Fatalf("round %d shard %d: edge delta %d, want %d", round, e.Shard, got, want)
			}
		}
		if err := g.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.NumShards(); s++ {
			auth, err := EncodeShardParcel(g, s)
			if err != nil {
				t.Fatal(err)
			}
			repl, err := EncodeShardParcel(container, s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(auth, repl) {
				t.Fatalf("round %d: shard %d replica diverged from authoritative state", round, s)
			}
		}
	}
}

func TestParcelRejectsCorruption(t *testing.T) {
	g := parcelGraph(t)
	parcel, err := EncodeShardParcel(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every boundary must error, never panic or succeed
	// with partial state.
	for cut := 0; cut < len(parcel); cut++ {
		if _, err := DecodeShardParcel(parcel[:cut], 3); err == nil {
			t.Fatalf("truncated parcel at %d decoded", cut)
		}
	}
	// The wrong shard index must be rejected: the nodes hash elsewhere,
	// which LoadShard checks.
	if st, err := DecodeShardParcel(parcel, 3); err != nil {
		t.Fatal(err)
	} else {
		fresh := graph.NewSharded(g.NumShards())
		if err := fresh.LoadShard(4, st); err == nil {
			t.Fatal("parcel of shard 3 loaded as shard 4")
		}
	}
	if _, err := DecodeShardParcel(nil, 0); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("empty parcel: got %v, want ErrBadSnapshot", err)
	}
}
