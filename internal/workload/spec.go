// Package workload models the paper's evaluation applications: the
// fifteen AMD APP SDK OpenCL benchmarks, glxgears, the two combined
// compute/graphics applications, and the Throttle microbenchmark with its
// request-size and sleep-ratio knobs (Section 5.1, Table 1).
//
// Each application is a calibrated request mix: per round (one main-loop
// iteration or one rendered frame) it performs a little CPU work and
// submits a fixed sequence of GPU requests whose total and mean service
// times match Table 1's "µs per round" and "µs per request" columns. The
// mixes skew small — most requests are far smaller than the mean — to
// match the Figure 2 observation that the majority of requests are
// submitted back-to-back and serviced in microseconds.
package workload

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// Req is one request template within an application's per-round mix.
type Req struct {
	Size  sim.Duration
	Kind  gpu.Kind
	Count int
	// Trivial marks mode/state-change requests that the library never
	// checks for completion (the paper notes these exist and are
	// intercepted like any other). They are excluded from per-request
	// service statistics — their completion is unobservable — but they
	// are real submissions, so engaged schedulers pay for them.
	Trivial bool
}

// Spec describes an application.
type Spec struct {
	Name string
	Area string

	// CPU is per-round host-side work.
	CPU sim.Duration
	// Mix is the per-round request sequence (expanded by Count, in order).
	Mix []Req
	// Pipelined applications submit the whole round non-blocking and wait
	// on a frame fence (graphics style); otherwise every request is a
	// blocking round trip (OpenCL style).
	Pipelined bool
	// Channels lists the channel kinds to open. Defaults to {Compute}.
	Channels []gpu.Kind
	// SleepRatio is the fraction of each cycle spent off the GPU
	// (Section 5.4's nonsaturating workloads). 0 means saturating.
	SleepRatio float64

	// PaperRoundUS and PaperReqUS are Table 1's reference values, for
	// calibration tests and reports.
	PaperRoundUS float64
	PaperReqUS   float64
	// PaperReq2US is the second per-request figure for combined
	// compute/graphics applications (graphics channel).
	PaperReq2US float64
}

// Requests returns the expanded per-round request sequence.
func (s Spec) Requests() []Req {
	var out []Req
	for _, r := range s.Mix {
		n := r.Count
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, Req{Size: r.Size, Kind: r.Kind, Trivial: r.Trivial})
		}
	}
	return out
}

// ChannelKinds returns the channel kinds the spec's clients open:
// Channels, or {Compute} when it is empty.
func (s Spec) ChannelKinds() []gpu.Kind {
	if len(s.Channels) > 0 {
		return s.Channels
	}
	return []gpu.Kind{gpu.Compute}
}

// checkKinds reports a Mix entry whose kind the spec's clients do not
// open: such a request has no channel to go to.
func (s Spec) checkKinds() error {
	for _, r := range s.Mix {
		if len(s.Channels) == 0 && r.Kind != gpu.Compute || len(s.Channels) > 0 && !slices.Contains(s.Channels, r.Kind) {
			return fmt.Errorf("workload: spec %q submits %v requests but opens only %v channels",
				s.Name, r.Kind, s.ChannelKinds())
		}
	}
	return nil
}

// GPUTime returns the per-round device time of the mix.
func (s Spec) GPUTime() sim.Duration {
	var sum sim.Duration
	for _, r := range s.Requests() {
		sum += r.Size
	}
	return sum
}

// RequestCount returns the number of requests per round.
func (s Spec) RequestCount() int { return len(s.Requests()) }

// ActiveTime returns the standalone per-round busy time (CPU + GPU).
func (s Spec) ActiveTime() sim.Duration { return s.CPU + s.GPUTime() }

// OffTime returns the fixed per-round sleep implied by SleepRatio: the
// think time that makes the standalone duty cycle equal 1 - SleepRatio.
func (s Spec) OffTime() sim.Duration {
	if s.SleepRatio <= 0 || s.SleepRatio >= 1 {
		return 0
	}
	return sim.Duration(float64(s.ActiveTime()) * s.SleepRatio / (1 - s.SleepRatio))
}

// MeanRequest returns the mean size of the mix's checked (non-trivial)
// requests, the quantity Table 1 reports.
func (s Spec) MeanRequest() sim.Duration {
	var sum sim.Duration
	n := 0
	for _, r := range s.Requests() {
		if r.Trivial {
			continue
		}
		sum += r.Size
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / sim.Duration(n)
}

const us = time.Microsecond

func c(size sim.Duration, n int) Req { return Req{Size: size, Kind: gpu.Compute, Count: n} }
func g(size sim.Duration, n int) Req { return Req{Size: size, Kind: gpu.Graphics, Count: n} }
func triv(n int) Req                 { return Req{Size: 2 * us, Kind: gpu.Compute, Count: n, Trivial: true} }
func spec(name, area string, cpu sim.Duration, round, req float64, mix ...Req) Spec {
	return Spec{
		Name: name, Area: area, CPU: cpu, Mix: mix,
		PaperRoundUS: round, PaperReqUS: req,
	}
}

// Table1 returns the full benchmark suite of the paper's Table 1.
func Table1() []Spec {
	specs := []Spec{
		spec("BinarySearch", "Searching", 47*us, 161, 57, c(34*us, 1), c(80*us, 1)),
		spec("BitonicSort", "Sorting", 212*us, 1292, 202, c(8*us, 1), c(100*us, 1), c(250*us, 1), c(300*us, 1), c(352*us, 1), triv(35)),
		spec("DCT", "Compression", 65*us, 197, 66, c(32*us, 1), c(100*us, 1)),
		spec("EigenValue", "Algebra", 51*us, 163, 56, c(22*us, 1), c(90*us, 1)),
		spec("FastWalshTransform", "Encryption", 60*us, 310, 119, c(38*us, 1), c(200*us, 1), triv(6)),
		spec("FFT", "Signal Processing", 76*us, 268, 48, c(8*us, 1), c(20*us, 1), c(64*us, 1), c(100*us, 1)),
		spec("FloydWarshall", "Graph Analysis", 311*us, 5631, 141, c(90*us, 18), c(190*us, 18), triv(140)),
		spec("LUDecomposition", "Algebra", 258*us, 1490, 308, c(108*us, 1), c(200*us, 1), c(424*us, 1), c(500*us, 1)),
		spec("MatrixMulDouble", "Algebra", 525*us, 12628, 637, c(437*us, 9), c(817*us, 10)),
		spec("MatrixMultiplication", "Algebra", 300*us, 3788, 436, c(236*us, 4), c(636*us, 4)),
		spec("MatrixTranspose", "Algebra", 17*us, 1153, 284, c(84*us, 1), c(200*us, 1), c(384*us, 1), c(468*us, 1)),
		spec("PrefixSum", "Data Processing", 47*us, 157, 55, c(20*us, 1), c(90*us, 1)),
		spec("RadixSort", "Sorting", 522*us, 8082, 210, c(110*us, 18), c(310*us, 18)),
		spec("Reduction", "Data Processing", 19*us, 1147, 282, c(82*us, 1), c(200*us, 1), c(382*us, 1), c(464*us, 1)),
		spec("ScanLargeArrays", "Data Processing", 53*us, 197, 72, c(44*us, 1), c(100*us, 1)),
	}
	gears := spec("glxgears", "Graphics", 0, 72, 37, g(6*us, 1), g(68*us, 1))
	gears.Pipelined = true
	gears.Channels = []gpu.Kind{gpu.Graphics}
	specs = append(specs, gears)

	particles := Spec{
		Name: "oclParticles", Area: "Physics/Graphics",
		CPU:          170 * us,
		Mix:          []Req{c(12*us, 2), g(302*us, 6)},
		Pipelined:    true,
		Channels:     []gpu.Kind{gpu.Compute, gpu.Graphics},
		PaperRoundUS: 2006, PaperReqUS: 12, PaperReq2US: 302,
	}
	specs = append(specs, particles)

	texture := Spec{
		Name: "simpleTexture3D", Area: "Texturing/Graphics",
		CPU:          330 * us,
		Mix:          []Req{c(108*us, 4), g(171*us, 10)},
		Pipelined:    true,
		Channels:     []gpu.Kind{gpu.Compute, gpu.Graphics},
		PaperRoundUS: 2472, PaperReqUS: 108, PaperReq2US: 171,
	}
	specs = append(specs, texture)
	return specs
}

// ByName returns the Table 1 spec with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Table1() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Throttle returns the controlled microbenchmark: repetitive blocking
// compute requests of the given size, with an optional off (sleep) ratio
// for nonsaturating scenarios.
func Throttle(size sim.Duration, sleepRatio float64) Spec {
	return Spec{
		Name:         "Throttle",
		Area:         "Microbenchmark",
		CPU:          2 * us,
		Mix:          []Req{c(size, 1)},
		SleepRatio:   sleepRatio,
		PaperRoundUS: float64(size) / float64(us),
		PaperReqUS:   float64(size) / float64(us),
	}
}
