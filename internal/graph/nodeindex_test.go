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
