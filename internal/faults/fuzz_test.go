package faults

import "testing"

// FuzzCompile drives Compile over the node count, horizon, seed and
// every field of every fault process. It must never panic: every bad
// configuration comes back as an error. On success, every boundary an
// engine realizes lies in [0, horizon) and every drift factor in
// [1-Max, 1+Max].
//
// procs selects the processes present (bit 0 Crash, 1 Loss, 2 Drift,
// 3 Brownout, 4 Silence) and kill the Kill list (bit i kills node i,
// bit 7 also lists node n, which is out of range). Inputs that Compile
// would accept with more than maxFuzzWindows windows per node in a
// recurring schedule are skipped: it accepts up to 2^22, which is too
// much memory to materialize per fuzz input.
func FuzzCompile(f *testing.F) {
	f.Add(uint8(6), 100.0, uint64(1), uint8(31), uint8(0x0f), 40.0, 8.0, 3.0,
		0.1, 30.0, 5.0, 0.9, 0.01, 50.0, 10.0, 0.0, 80.0, 8.0)
	f.Add(uint8(3), 10.0, uint64(2), uint8(1), uint8(0x81), 5.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), 1.0, uint64(3), uint8(8), uint8(0), 0.0, 0.0, 0.0,
		0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, n8 uint8, horizon float64, seed uint64, procs, kill uint8,
		killAt, meanUp, meanDown, p, meanGood, meanBad, pBad, driftMax,
		brownEvery, brownFor, brownScale, silenceEvery, silenceFor float64) {
		n := int(n8%16) - 1 // -1 and 0 must be rejected
		var cfg Config
		if procs&1 != 0 {
			c := &Crash{KillAt: killAt, MeanUp: meanUp, MeanDown: meanDown}
			for i := 0; i < 7; i++ {
				if kill&(1<<i) != 0 {
					c.Kill = append(c.Kill, i)
				}
			}
			if kill&0x80 != 0 {
				c.Kill = append(c.Kill, n)
			}
			cfg.Crash = c
		}
		if procs&2 != 0 {
			cfg.Loss = &Loss{P: p, MeanGood: meanGood, MeanBad: meanBad, PBad: pBad}
		}
		if procs&4 != 0 {
			cfg.Drift = &Drift{Max: driftMax}
		}
		if procs&8 != 0 {
			cfg.Brownout = &Brownout{MeanEvery: brownEvery, MeanFor: brownFor, Scale: brownScale}
		}
		if procs&16 != 0 {
			cfg.Silence = &Silence{MeanEvery: silenceEvery, MeanFor: silenceFor}
		}
		var cycles []float64
		if cfg.Crash != nil && meanUp > 0 {
			cycles = append(cycles, meanUp+meanDown)
		}
		if cfg.Loss != nil && meanGood > 0 {
			cycles = append(cycles, meanGood+meanBad)
		}
		if cfg.Brownout != nil {
			cycles = append(cycles, brownEvery+brownFor)
		}
		if cfg.Silence != nil {
			cycles = append(cycles, silenceEvery+silenceFor)
		}
		for _, cycle := range cycles {
			if w := horizon / cycle; w > maxFuzzWindows && densityOK(cycle, 0, horizon) {
				t.Skip("schedule too dense to materialize per fuzz input")
			}
		}
		s, err := Compile(&cfg, n, horizon, seed)
		if err != nil {
			return
		}
		if s == nil {
			if cfg.active() {
				t.Fatal("an active configuration compiled to the fault-free set")
			}
			return
		}
		for i := 0; i < n; i++ {
			s.Boundaries(i, func(at float64) {
				if !(at >= 0 && at < horizon) {
					t.Fatalf("node %d: boundary %v outside [0, %v)", i, at, horizon)
				}
			})
			d, max := s.Drift(i), 0.0
			if cfg.Drift != nil {
				max = cfg.Drift.Max
			}
			if !(d >= 1-max && d <= 1+max) {
				t.Fatalf("node %d: drift %v outside [1-%v, 1+%v]", i, d, max, max)
			}
		}
		_ = s.Trace()
	})
}

// maxFuzzWindows bounds the windows per node and process FuzzCompile
// lets Compile materialize.
const maxFuzzWindows = 1 << 12
