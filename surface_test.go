package incgraph_test

import (
	"reflect"
	"slices"
	"testing"

	"incgraph"
)

// TestWriteSurface pins the ways a batch can be moved and the knobs on that
// path against golden lists: a method of *Durable or *Cluster that takes a
// Batch, or a field of the two structs a commit is configured through, is
// added or removed by editing this test.
func TestWriteSurface(t *testing.T) {
	batch := reflect.TypeOf(incgraph.Batch(nil))
	takesBatch := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			for j := 1; j < m.Type.NumIn(); j++ {
				if m.Type.In(j) == batch {
					names = append(names, m.Name)
					break
				}
			}
		}
		return names
	}
	fields := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumField(); i++ {
			names = append(names, typ.Field(i).Name)
		}
		return names
	}
	for _, tc := range []struct {
		what      string
		got, want []string
	}{
		{"(*Durable) methods taking a Batch", takesBatch(reflect.TypeOf(&incgraph.Durable{})), []string{"Commit", "LogPlanned"}},
		{"(*Cluster) methods taking a Batch", takesBatch(reflect.TypeOf(&incgraph.Cluster{})), []string{"Apply"}},
		{"ApplyOptions fields", fields(reflect.TypeOf(incgraph.ApplyOptions{})), []string{"Via", "Log", "Exclusive"}},
	} {
		if !slices.Equal(tc.got, tc.want) {
			t.Errorf("%s: %v, want %v", tc.what, tc.got, tc.want)
		}
	}
}
