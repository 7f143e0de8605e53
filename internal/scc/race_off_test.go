//go:build !race

package scc

const raceDetector = false
