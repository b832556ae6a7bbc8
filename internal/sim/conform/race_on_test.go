//go:build race

package conform

// raceEnabled trims the check to raceSeeds replicates: the race
// detector slows the engine several times over.
const (
	raceEnabled = true
	raceSeeds   = 10
)
