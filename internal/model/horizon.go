package model

import (
	"errors"
	"math"
)

// CheckHorizon validates a run's horizon, the same way for every
// substrate: duration must be positive and finite, and warmup in
// [0, duration). NaN fails both tests.
func CheckHorizon(duration, warmup float64) error {
	if !(duration > 0) || math.IsInf(duration, 0) {
		return errors.New("duration must be positive and finite")
	}
	if !(warmup >= 0) || warmup >= duration {
		return errors.New("warmup must be in [0, duration)")
	}
	return nil
}
