//go:build !race

package placement

const raceEnabled = false
