package graph

import "testing"

// TestNodeIndex: IDs inside the direct window and outside it (negative,
// huge, or beyond the window as it stood when they arrived) all round-trip,
// and an ID never added is absent whichever way it would have gone.
func TestNodeIndex(t *testing.T) {
	ids := []NodeID{0, 5, -1, 1 << 40, 1023, 1024 + 4*5, 1024 + 4*6 - 1, -1 << 50, 3}
	x := IndexNodes(ids[:4])
	for i, v := range ids[4:] {
		x.Add(v, int32(4+i))
	}
	for i, v := range ids {
		if j, ok := x.Get(v); !ok || int(j) != i || x.Of(v) != int32(i) {
			t.Fatalf("Get(%d) = %d, %v, want %d", v, j, ok, i)
		}
	}
	if len(x.sparse) != 4 { // -1, 1<<40, 1024+4*5 (where the window ended when it arrived), -1<<50
		t.Fatalf("%d IDs went through the map: %v", len(x.sparse), x.sparse)
	}
	for _, v := range []NodeID{1, 4, 6, 1022, 2000, -2, 1 << 41} {
		if j, ok := x.Get(v); ok {
			t.Fatalf("Get(%d) = %d, want absent", v, j)
		}
	}
	if x.Len() != len(ids) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(ids))
	}
	var zero NodeIndex
	if _, ok := zero.Get(0); ok || zero.Len() != 0 {
		t.Fatal("the zero index is not empty")
	}
}

// TestNodeIndexRemove: removing an ID unmaps it on either path and
// leaves the others mapped; removing an absent ID does nothing; a removed
// ID can be added again, under a new index.
func TestNodeIndexRemove(t *testing.T) {
	ids := []NodeID{0, 7, -3, 1 << 40, 2, 5000}
	x := IndexNodes(ids)
	if len(x.sparse) != 3 { // -3, 1<<40, 5000
		t.Fatalf("%d IDs went through the map, want 3", len(x.sparse))
	}
	x.Remove(1)        // never added, inside the window
	x.Remove(-1 << 50) // never added, sparse
	if x.Len() != len(ids) {
		t.Fatalf("removing absent IDs changed Len to %d", x.Len())
	}
	for n, v := range []NodeID{7, -3, 1 << 40} {
		x.Remove(v)
		if i, ok := x.Get(v); ok {
			t.Fatalf("Get(%d) = %d after Remove", v, i)
		}
		if x.Len() != len(ids)-n-1 {
			t.Fatalf("Len = %d after removing %d IDs", x.Len(), n+1)
		}
		x.Remove(v)
		if x.Len() != len(ids)-n-1 {
			t.Fatalf("a second Remove(%d) changed Len to %d", v, x.Len())
		}
	}
	for i, v := range ids {
		if v == 7 || v == -3 || v == 1<<40 {
			continue
		}
		if j, ok := x.Get(v); !ok || int(j) != i {
			t.Fatalf("Get(%d) = %d, %v after removing others, want %d", v, j, ok, i)
		}
	}
	x.Add(7, 40)
	x.Add(1<<40, 41)
	if x.Of(7) != 40 || x.Of(1<<40) != 41 {
		t.Fatalf("re-added IDs map to %d and %d, want 40 and 41", x.Of(7), x.Of(1<<40))
	}
}
