//go:build race

package job_test

// raceEnabled reports a build with the race detector.
const raceEnabled = true
