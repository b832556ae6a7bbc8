// Package sim is a unitflow fixture: mirror declarations whose
// registry keys match econcast/internal/sim, with at least one seeded
// bug per interacting dimension pair (s↔tick, J↔W, W↔1/W, pkt↔pkt/s,
// s↔J) plus the dimensionally-sound flows that must stay silent.
// Loaded under econcast/internal/viz instead, none of the registry keys
// resolve and the whole file must be quiet.
package sim

type Protocol struct {
	Tau        float64
	PacketTime float64
}

// TicksToSeconds forgets to scale by Tau: the tick-valued parameter
// flows straight to the second-valued result.
func (p Protocol) TicksToSeconds(ticks float64) float64 {
	return ticks // want unitflow
}

func (p Protocol) SecondsToTicks(t float64) float64 {
	return t / p.Tau
}

type Config struct {
	Duration       float64
	Warmup         float64
	InitialBattery float64
}

type Metrics struct {
	Window           float64
	Power            []float64
	EtaFinal         []float64
	Battery          []float64
	PacketsDelivered int
}

type event struct {
	at float64
}

type coordinator struct {
	tau float64
	now float64
}

func (c *coordinator) active(i int, t float64) bool { return t < c.tau }

func window(m *Metrics) float64 { return m.Window }

func bugs(e *coordinator, p Protocol, c Config, m *Metrics) {
	ticks := p.SecondsToTicks(c.Duration)

	deadline := e.now + ticks // want unitflow
	_ = deadline

	if c.InitialBattery > m.Power[0] { // want unitflow
		return
	}

	m.Battery[0] = m.Power[0] // want unitflow

	m.EtaFinal[0] = m.Power[0] // want unitflow

	rate := float64(m.PacketsDelivered) / m.Window
	if rate > float64(m.PacketsDelivered) { // want unitflow
		return
	}

	_ = event{at: ticks} // want unitflow

	_ = e.active(0, ticks) // want unitflow

	span := c.Duration + c.InitialBattery // want unitflow
	_ = span

	// Interprocedural: window's result dimension is inferred, not
	// registered.
	x := window(m) + ticks // want unitflow
	_ = x

	// Dimensionally sound flows stay silent: mul/div compose, scalars
	// combine freely, and the conversion helpers bridge ticks to
	// seconds.
	energy := m.Power[0] * m.Window // W·s = J
	m.Battery[0] = energy
	m.Power[0] = energy / m.Window
	e.now += e.tau
	_ = p.TicksToSeconds(ticks) + c.Warmup
	_ = 2*c.Duration + c.Warmup
	_ = e.active(0, c.Warmup)
}
