//go:build eagerfanout

package graph

// Building with -tags eagerfanout turns EagerFanOut on for the whole test
// binary. CI's race smoke builds this way, so every fan-out of the suites
// it runs is concurrent under the detector, however small the input.
func init() { eagerFanOut.Store(true) }
