//go:build !race

package rpki

const raceEnabled = false
