//go:build race

package incgraph_test

// raceDetector reports whether the test binary was built with -race, which
// slows the engines' loops several times over: claims about what finishes
// inside a fixed time do not hold under it.
const raceDetector = true
