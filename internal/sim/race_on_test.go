//go:build race

package sim

// raceEnabled reports whether the test binary was built with the race
// detector. See underRace for the tests it shortens.
const raceEnabled = true
