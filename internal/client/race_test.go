//go:build race

package client_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
