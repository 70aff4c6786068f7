package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// never is the gap returned when a process's current rate is zero, and
// the ceiling every gap saturates at: far enough out that the stream is
// silent for any experiment window, small enough that Time.Add never
// saturates.
const never = sim.Duration(1) << 55

// maxRate is the fastest mean arrival rate a stream may declare: one
// arrival per engine tick (1 ns). Faster sources cannot be represented
// in virtual time — their gaps would all floor to the tick — so New
// rejects them instead of silently serving a slower stream.
const maxRate = 1e9

// CheckArrival validates an arrival process at the serving boundary: its
// declared mean rate must be finite, non-negative, and at most maxRate
// arrivals per second.
func CheckArrival(a Arrival) error {
	if a == nil {
		return fmt.Errorf("no arrival process")
	}
	r := a.MeanRate()
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 || r > maxRate {
		return fmt.Errorf("arrival %s: mean rate %v/s outside [0, %g]", a.Name(), r, maxRate)
	}
	return nil
}

// gapOf converts a gap in float nanoseconds to a Duration, flooring at
// the 1 ns tick and saturating at never — Go leaves converting an
// out-of-range float implementation-defined (negative on amd64), so the
// range check must come first.
func gapOf(ns float64) sim.Duration {
	if !(ns < float64(never)) { // also catches NaN
		return never
	}
	if ns < 1 {
		return 1
	}
	return sim.Duration(ns)
}

// Arrival is an open-loop arrival process: a source of inter-arrival
// gaps that does not depend on request completions (no think time, no
// closed-loop coupling). Implementations may keep state (MMPP phase),
// so an Arrival instance belongs to exactly one stream of one scenario
// — construct fresh instances per scenario, never share them.
//
// Next must be deterministic given (now, the stream's RNG state, the
// process's own state); all randomness must come from rng.
type Arrival interface {
	// Name identifies the process family in reports.
	Name() string
	// MeanRate returns the long-run average arrival rate, in requests
	// per second — the quantity load-factor calibration divides by.
	MeanRate() float64
	// Next returns the gap from now to the next arrival.
	Next(now sim.Time, rng *sim.RNG) sim.Duration
}

// expGap draws an exponential inter-arrival gap for the given rate in
// events/second (a homogeneous Poisson step). Zero or negative rates
// yield never; gaps are floored at 1 ns so open-loop generators always
// advance virtual time, and saturate at never.
func expGap(rng *sim.RNG, rate float64) sim.Duration {
	if rate <= 0 {
		return never
	}
	u := rng.Float64()
	return gapOf(-math.Log(1-u) / rate * 1e9)
}

// Deterministic arrivals tick at exactly 1/Rate intervals — the
// cleanest probe stream for latency percentiles, since every variance
// in its sojourn times comes from the system, not the source.
type Deterministic struct {
	Rate float64 // arrivals per second
}

// Name implements Arrival.
func (Deterministic) Name() string { return "deterministic" }

// MeanRate implements Arrival.
func (d Deterministic) MeanRate() float64 { return d.Rate }

// Next implements Arrival.
func (d Deterministic) Next(now sim.Time, rng *sim.RNG) sim.Duration {
	if d.Rate <= 0 {
		return never
	}
	return gapOf(1e9 / d.Rate)
}

// Poisson arrivals have exponential inter-arrival gaps — the memoryless
// baseline for aggregate user traffic.
type Poisson struct {
	Rate float64 // arrivals per second
}

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }

// MeanRate implements Arrival.
func (p Poisson) MeanRate() float64 { return p.Rate }

// Next implements Arrival.
func (p Poisson) Next(now sim.Time, rng *sim.RNG) sim.Duration {
	return expGap(rng, p.Rate)
}

// MMPP is a two-state Markov-modulated Poisson process: Poisson
// arrivals at BurstRate during exponentially distributed bursts of mean
// BurstDwell, and at BaseRate (often zero) between them. This is the
// bursty adversary shape: long-run rate within its fair share, burst
// rate far above capacity.
type MMPP struct {
	BaseRate   float64      // arrivals/second between bursts
	BurstRate  float64      // arrivals/second during bursts
	BaseDwell  sim.Duration // mean time between bursts
	BurstDwell sim.Duration // mean burst length

	// phase state: the process starts in the base state at time zero and
	// lazily initializes on first use.
	burst    bool
	stateEnd sim.Time
	started  bool
}

// NewMMPP returns a two-state burst process with the given parameters.
func NewMMPP(baseRate, burstRate float64, baseDwell, burstDwell sim.Duration) *MMPP {
	return &MMPP{BaseRate: baseRate, BurstRate: burstRate, BaseDwell: baseDwell, BurstDwell: burstDwell}
}

// Name implements Arrival.
func (*MMPP) Name() string { return "mmpp" }

// MeanRate implements Arrival: the dwell-weighted average of the two
// state rates.
func (m *MMPP) MeanRate() float64 {
	total := float64(m.BaseDwell + m.BurstDwell)
	if total <= 0 {
		return 0
	}
	return (m.BaseRate*float64(m.BaseDwell) + m.BurstRate*float64(m.BurstDwell)) / total
}

// Next implements Arrival: exponential steps at the current state's
// rate; steps that would cross the state boundary restart from it at
// the other state's rate (the memoryless property makes the restart
// exact, not an approximation).
func (m *MMPP) Next(now sim.Time, rng *sim.RNG) sim.Duration {
	if m.MeanRate()*never.Seconds() < 1 {
		// The mean gap lies past the horizon: walking the state chain
		// toward an arrival would take billions of dwells.
		return never
	}
	if !m.started {
		m.started = true
		m.burst = false
		m.stateEnd = now.Add(m.dwell(rng))
	}
	t := now
	for {
		rate := m.BaseRate
		if m.burst {
			rate = m.BurstRate
		}
		gap := expGap(rng, rate)
		if next := t.Add(gap); next <= m.stateEnd {
			return next.Sub(now)
		}
		t = m.stateEnd
		if t.Sub(now) >= never {
			return never
		}
		m.burst = !m.burst
		m.stateEnd = t.Add(m.dwell(rng))
	}
}

// dwell draws the current state's exponential holding time.
func (m *MMPP) dwell(rng *sim.RNG) sim.Duration {
	mean := m.BaseDwell
	if m.burst {
		mean = m.BurstDwell
	}
	if mean <= 0 {
		return 1
	}
	return expGap(rng, 1e9/float64(mean))
}

// Staggered arrivals fire once at Phase, then every Gap thereafter — a
// deterministic comb with a per-stream offset. Storm populations use
// it: spreading Phase evenly over one Gap across 10^4 streams gives a
// uniform arrival front instead of a synchronized spike at time zero,
// while still guaranteeing every stream fires in every Gap-wide window.
// The process is stateful (the first gap differs from the rest), so
// construct a fresh instance per stream, never share one.
type Staggered struct {
	Phase sim.Duration // offset of the first arrival
	Gap   sim.Duration // steady inter-arrival gap after the first

	started bool
}

// Name implements Arrival.
func (*Staggered) Name() string { return "staggered" }

// MeanRate implements Arrival: the steady rate once past the phase-in.
func (s *Staggered) MeanRate() float64 {
	if s.Gap <= 0 {
		return 0
	}
	return 1e9 / float64(s.Gap)
}

// Next implements Arrival.
func (s *Staggered) Next(now sim.Time, rng *sim.RNG) sim.Duration {
	if !s.started {
		s.started = true
		if s.Phase >= 1 {
			return s.Phase
		}
		return 1
	}
	if s.Gap < 1 {
		return never
	}
	return s.Gap
}

// Diurnal is a nonhomogeneous Poisson process whose rate follows a
// sinusoidal day/night cycle: rate(t) = Base * (1 + Amplitude *
// sin(2*pi*t/Period)). Arrivals are generated by Lewis-Shedler
// thinning against the peak rate, so the process is exact, not a
// stepwise approximation.
type Diurnal struct {
	Base      float64      // mean arrivals per second
	Amplitude float64      // modulation depth in [0, 0.95]
	Period    sim.Duration // cycle length
}

// Name implements Arrival.
func (Diurnal) Name() string { return "diurnal" }

// MeanRate implements Arrival: the sinusoid integrates to zero over a
// period, so the mean is Base.
func (d Diurnal) MeanRate() float64 { return d.Base }

// Next implements Arrival.
func (d Diurnal) Next(now sim.Time, rng *sim.RNG) sim.Duration {
	amp := d.Amplitude
	if amp < 0 {
		amp = 0
	}
	if amp > 0.95 {
		amp = 0.95
	}
	peak := d.Base * (1 + amp)
	if peak <= 0 || d.Period <= 0 {
		return never
	}
	t := now
	for {
		t = t.Add(expGap(rng, peak))
		phase := 2 * math.Pi * float64(t) / float64(d.Period)
		rate := d.Base * (1 + amp*math.Sin(phase))
		if rng.Float64()*peak <= rate {
			return min(t.Sub(now), never)
		}
	}
}

// Describe renders an arrival process for notes and debugging.
func Describe(a Arrival) string {
	return fmt.Sprintf("%s(%.0f/s)", a.Name(), a.MeanRate())
}
