//go:build race

package rpki

// raceEnabled is whether the race detector instruments this build.
const raceEnabled = true
