package traffic

import (
	"math"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// drawArrivals advances a process from time zero for the window and
// returns the arrival times.
func drawArrivals(a Arrival, rng *sim.RNG, window sim.Duration) []sim.Time {
	var out []sim.Time
	now := sim.Time(0)
	for {
		now = now.Add(a.Next(now, rng))
		if now.Sub(0) > window {
			return out
		}
		out = append(out, now)
	}
}

// TestArrivalMeanRates: every process family must realize its declared
// MeanRate over a long window.
func TestArrivalMeanRates(t *testing.T) {
	const window = 20 * time.Second
	cases := []struct {
		name string
		mk   func() Arrival
		tol  float64
	}{
		{"deterministic", func() Arrival { return Deterministic{Rate: 500} }, 0.01},
		{"poisson", func() Arrival { return Poisson{Rate: 500} }, 0.05},
		{"mmpp", func() Arrival {
			return NewMMPP(100, 2000, 30*time.Millisecond, 10*time.Millisecond)
		}, 0.15},
		{"diurnal", func() Arrival {
			return Diurnal{Base: 500, Amplitude: 0.8, Period: 100 * time.Millisecond}
		}, 0.05},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := c.mk()
			rng := sim.NewRNG(11)
			got := float64(len(drawArrivals(a, rng, window))) / window.Seconds()
			want := a.MeanRate()
			if got < want*(1-c.tol) || got > want*(1+c.tol) {
				t.Fatalf("empirical rate %.1f/s, declared %.1f/s (tol %.0f%%)", got, want, 100*c.tol)
			}
		})
	}
}

// TestArrivalDeterminism: identical seeds must produce identical
// arrival sequences — the property the parallel harness rests on.
func TestArrivalDeterminism(t *testing.T) {
	mk := func() []sim.Time {
		a := NewMMPP(50, 3000, 20*time.Millisecond, 5*time.Millisecond)
		return drawArrivals(a, sim.NewRNG(7), 2*time.Second)
	}
	x, y := mk(), mk()
	if len(x) != len(y) {
		t.Fatalf("lengths differ: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestMMPPBurstiness: an on/off MMPP must concentrate arrivals far
// beyond a Poisson process of the same mean — measured as the maximum
// arrivals in any burst-sized window.
func TestMMPPBurstiness(t *testing.T) {
	const window = 5 * time.Second
	const bin = 10 * time.Millisecond
	peak := func(a Arrival) int {
		counts := map[int64]int{}
		for _, at := range drawArrivals(a, sim.NewRNG(3), window) {
			counts[int64(at)/int64(bin)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	mmpp := NewMMPP(0, 4000, 30*time.Millisecond, 10*time.Millisecond)
	pois := Poisson{Rate: mmpp.MeanRate()}
	if mp, pp := peak(mmpp), peak(pois); mp < 2*pp {
		t.Fatalf("MMPP peak bin %d not bursty vs Poisson peak bin %d", mp, pp)
	}
}

// TestDiurnalModulation: arrivals in the rising half-period must
// outnumber the falling half by roughly the modulation depth.
func TestDiurnalModulation(t *testing.T) {
	period := 100 * time.Millisecond
	a := Diurnal{Base: 2000, Amplitude: 0.8, Period: period}
	highs, lows := 0, 0
	for _, at := range drawArrivals(a, sim.NewRNG(5), 10*time.Second) {
		if int64(at)%int64(period) < int64(period)/2 {
			highs++ // sin positive: above-base rate
		} else {
			lows++
		}
	}
	if highs < lows*2 {
		t.Fatalf("diurnal modulation invisible: %d high-half vs %d low-half arrivals", highs, lows)
	}
}

// TestCheckArrivalRejectsUnrepresentableRates: the serving boundary
// refuses a mean rate that is non-finite, negative, or faster than the
// 1 ns engine tick, and New refuses a stream carrying one. Zero (a
// silent stream) and the tick rate itself pass.
func TestCheckArrivalRejectsUnrepresentableRates(t *testing.T) {
	for _, a := range []Arrival{
		Poisson{Rate: math.NaN()},
		Poisson{Rate: math.Inf(1)},
		Deterministic{Rate: -1},
		Diurnal{Base: 2e9, Amplitude: 0.5, Period: time.Second},
		NewMMPP(0, math.Inf(1), 30*time.Millisecond, 10*time.Millisecond),
		nil,
	} {
		if CheckArrival(a) == nil {
			t.Errorf("CheckArrival(%#v) accepted an unrepresentable rate", a)
		}
		eng := sim.NewEngine()
		_, err := New(eng, Config{
			Fleet:   fleet.Config{Devices: 1, Sched: "direct", Seed: 1},
			Streams: []Stream{{Tenant: workload.OpenLoopTenant("bad", 100*us, 0), Arrival: a}},
		})
		if err == nil {
			t.Errorf("New accepted a stream with arrival %#v", a)
		}
	}
	for _, a := range []Arrival{Deterministic{Rate: 0}, Poisson{Rate: maxRate}, &Staggered{Gap: 0}} {
		if err := CheckArrival(a); err != nil {
			t.Errorf("CheckArrival(%#v) = %v, want ok", a, err)
		}
	}
}

// TestGapsSaturateAtNever: a rate so low that its gap overflows a
// Duration yields the silent gap, never a negative one (Go leaves the
// out-of-range float conversion implementation-defined), and the
// multi-state processes return promptly instead of walking billions of
// dwells toward an arrival past the horizon.
func TestGapsSaturateAtNever(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, a := range []Arrival{
		Deterministic{Rate: 1e-12},
		Poisson{Rate: 1e-12},
		Poisson{Rate: math.SmallestNonzeroFloat64},
		NewMMPP(0, 1e-12, 30*time.Millisecond, 10*time.Millisecond),
		NewMMPP(1e-12, 1e-11, time.Millisecond, time.Millisecond),
		Diurnal{Base: 1e-12, Amplitude: 0.8, Period: 100 * time.Millisecond},
	} {
		for i := 0; i < 100; i++ {
			if gap := a.Next(0, rng); gap < 1 || gap > never {
				t.Fatalf("%s: gap %v outside [1ns, never]", a.Name(), gap)
			}
		}
	}
	if gap := (Deterministic{Rate: 1e-12}).Next(0, rng); gap != never {
		t.Errorf("deterministic 1e-12/s gap = %v, want never", gap)
	}
	if gap := (Deterministic{Rate: 2e9}).Next(0, rng); gap != 1 {
		t.Errorf("deterministic 2e9/s gap = %v, want the 1 ns floor", gap)
	}
}
