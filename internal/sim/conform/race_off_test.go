//go:build !race

package conform

const (
	raceEnabled = false
	raceSeeds   = seeds
)
