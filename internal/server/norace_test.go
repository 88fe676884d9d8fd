//go:build !race

package server

// raceEnabled reports a build with the race detector.
const raceEnabled = false
