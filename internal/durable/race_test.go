//go:build race

package durable

// raceEnabled is whether the race detector instruments this build.
const raceEnabled = true
