//go:build race

package scc

// raceDetector reports whether the test binary was built with -race, under
// which sync.Pool drops a share of what it is handed: exact allocation
// counts of passes that borrow a pooled scratch do not hold.
const raceDetector = true
