package main

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// shortSlices scales each workload down for tests: the slice length and
// count of a window a few times shorter than the benchmark's.
var shortSlices = map[string]struct {
	slice sim.Duration
	n     int
}{
	"closed": {100 * ms, 20},
	"serve":  {100 * ms, 20},
	"storm":  {5 * ms, 20},
}

func episodeOf(t *testing.T, name string, seed int64, n int, slice sim.Duration) *episode {
	t.Helper()
	ep, err := runEpisode(plans[name], seed, n, slice, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ep.Violation != "" {
		t.Fatalf("%s (seed %d): invariant failed: %s", name, seed, ep.Violation)
	}
	return ep
}

// exact returns an episode's model outputs and counters, minus
// sim.pending_max, which is sampled at slice boundaries and so depends
// on the slicing by definition.
func exact(ep *episode) (map[string]float64, map[string]float64) {
	c := maps.Clone(ep.Counters)
	delete(c, "sim.pending_max")
	return ep.Model, c
}

// TestSlicedRunMatchesOneShot pins that cutting the window into timed
// slices changes nothing the simulation computes: every model output
// and exact counter equals that of one RunFor over the same span.
func TestSlicedRunMatchesOneShot(t *testing.T) {
	for _, name := range workloadNames {
		s := shortSlices[name]
		sliced := episodeOf(t, name, 1, s.n, s.slice)
		oneShot := episodeOf(t, name, 1, 1, s.slice*sim.Duration(s.n))
		m1, c1 := exact(sliced)
		m2, c2 := exact(oneShot)
		if !reflect.DeepEqual(m1, m2) {
			t.Errorf("%s: sliced model %v != one-shot %v", name, m1, m2)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Errorf("%s: sliced counters %v != one-shot %v", name, c1, c2)
		}
	}
}

// TestSeedDeterminism pins that one seed repeats bit for bit and that
// another seed gives a valid (invariants hold) but different run.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		s := shortSlices[name]
		a := episodeOf(t, name, 7, s.n, s.slice)
		b := episodeOf(t, name, 7, s.n, s.slice)
		if !reflect.DeepEqual(a.Model, b.Model) || !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Errorf("%s: two runs of seed 7 differ:\n%v %v\n%v %v", name, a.Model, a.Counters, b.Model, b.Counters)
		}
		c := episodeOf(t, name, 8, s.n, s.slice)
		if reflect.DeepEqual(a.Model, c.Model) {
			t.Errorf("%s: seeds 7 and 8 gave identical model outputs %v; the seed does not reach the workload", name, a.Model)
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	for v := 1; v <= 1000; v++ {
		h.add(sim.Duration(v) * us)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*1000*1e3
		if d := got/want - 1; d < -0.02 || d > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	var small latHist
	small.add(10)
	small.add(20)
	if got := small.quantile(0.5); got < 10 || got > 11 {
		t.Errorf("exact-range quantile(0.5) = %v, want in [10, 11]", got)
	}
}
