//go:build !race

package incgraph_test

const raceDetector = false
