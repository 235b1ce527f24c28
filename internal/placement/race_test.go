//go:build race

package placement

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// items at random, so fmt refills its printer pool now and then and an
// allocation count that includes an fmt call is not exact.
const raceEnabled = true
