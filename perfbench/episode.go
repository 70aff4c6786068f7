package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
)

// episode is one measured run of a workload in its own process: build,
// simulated warm-up, the fixed number of timed slices, readout. Host
// figures (spans, slices, memory) vary from run to run; Model and
// Counters are pure functions of the seed.
type episode struct {
	BuildMS   float64   `json:"build_ms"`
	WarmupMS  float64   `json:"warmup_ms"`
	ReadoutMS float64   `json:"readout_ms"`
	SliceMS   []float64 `json:"slice_ms"`

	// Completed and Attempted count simulated requests in the measured
	// window: Attempted is completions plus refusals, aborts and the
	// backlog left at the end of the window.
	Completed int64 `json:"completed"`
	Attempted int64 `json:"attempted"`

	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	LiveHeapMB float64 `json:"live_heap_mb"`

	Model    map[string]float64 `json:"model"`
	Counters map[string]float64 `json:"counters"`

	// Violation names the first failed invariant ("" when all hold).
	Violation string `json:"violation,omitempty"`

	// Traced episodes only: CPU samples and allocated bytes of the
	// measured window, folded by layer (see fold.go).
	CPU   map[string]int64 `json:"cpu,omitempty"`
	Alloc map[string]int64 `json:"alloc,omitempty"`
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// runEpisode builds the workload, warms it up, and runs the measured
// window as n slices of slice simulated time each. With traced
// set, the measured window also runs under the CPU profiler and the
// allocation profile is folded by layer.
func runEpisode(p plan, seed int64, n int, slice sim.Duration, traced bool) (*episode, error) {
	ep := &episode{}
	t0 := time.Now()
	st, err := p.build(seed)
	if err != nil {
		return nil, err
	}
	ep.BuildMS = msSince(t0)

	t0 = time.Now()
	st.eng.RunFor(p.warmup)
	ep.WarmupMS = msSince(t0)

	start := st.mark()
	// Every window starts from a fresh collection, so the GC work inside
	// it depends on the window's own allocations, not on where the
	// warm-up left the collector.
	runtime.GC()
	var cpuProf bytes.Buffer
	var allocBase []runtime.MemProfileRecord
	if traced {
		allocBase = memProfile()
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ep.SliceMS = make([]float64, n)
	pendingMax := 0
	for i := range ep.SliceMS {
		t := time.Now()
		st.eng.RunFor(slice)
		ep.SliceMS[i] = msSince(t)
		pendingMax = max(pendingMax, st.eng.Pending())
	}
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	ep.Mallocs = m1.Mallocs - m0.Mallocs
	ep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc

	t0 = time.Now()
	window := slice * sim.Duration(n)
	ep.Model, ep.Counters, ep.Completed, ep.Attempted = st.readout(start, window)
	ep.Counters["sim.pending_max"] = float64(pendingMax)
	ep.ReadoutMS = msSince(t0)
	ep.Violation = st.check(ep, start)

	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	ep.LiveHeapMB = float64(mh.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(st)

	if traced {
		if ep.CPU, err = foldCPUProfile(cpuProf.Bytes()); err != nil {
			return nil, err
		}
		ep.Alloc = foldAllocs(allocBase, memProfile(), runtime.MemProfileRate)
	}
	return ep, nil
}

// cpuProfileHz is the traced run's sampling rate: the default 100 Hz
// gives too few samples per second of measured window to split ten
// layers. (pprof.StartCPUProfile then warns on standard error that it
// cannot reset the rate; the rate set here stays in force.)
const cpuProfileHz = 500

// mark is the counter state at the start of the measured window; the
// readout subtracts it so every windowed counter covers the same span.
type mark struct {
	busy     []sim.Duration
	taskBusy map[*neon.Task]sim.Duration
	done     int64
	depth    int
	faults   int64
	cycles   int64
	denials  int64
	mux      neon.MuxStats
}

// mark clears the layers' own window statistics and snapshots the
// cumulative counters that have no reset.
func (st *stack) mark() mark {
	if st.srv != nil {
		st.srv.ResetStats()
	} else {
		for _, a := range st.apps {
			a.ResetStats()
		}
	}
	st.lat, st.victimLat = latHist{}, latHist{}
	m := mark{taskBusy: make(map[*neon.Task]sim.Duration)}
	for _, d := range st.devs {
		m.busy = append(m.busy, d.TotalBusy())
	}
	for _, k := range st.kernels {
		m.faults += k.TotalFaults
		m.mux = addMux(m.mux, k.MuxStatus())
		for _, t := range k.Tasks() {
			m.taskBusy[t] = t.BusyTime()
			m.done += t.CompletedRequests()
		}
	}
	for _, d := range st.dfqs {
		m.cycles += d.Cycles
		m.denials += d.Denials
	}
	if st.srv != nil {
		m.depth = st.srv.Fleet().QueueDepth()
	}
	return m
}

func addMux(a, b neon.MuxStats) neon.MuxStats {
	a.Opens += b.Opens
	a.Attaches += b.Attaches
	a.Reattaches += b.Reattaches
	a.Evictions += b.Evictions
	a.AttachWaits += b.AttachWaits
	a.MaxAttached = max(a.MaxAttached, b.MaxAttached)
	return a
}

// readout computes the model outputs and exact layer counters of the
// window that began at start and lasted window simulated time.
func (st *stack) readout(start mark, window sim.Duration) (model, counters map[string]float64, completed, attempted int64) {
	counters = make(map[string]float64)
	model = make(map[string]float64)
	var refused, aborted, backlog int64
	var faults, cycles, denials, lead, violations int64
	var mux neon.MuxStats
	var shares []float64
	for _, k := range st.kernels {
		faults += k.TotalFaults
		counters["neon.kills"] += float64(k.Kills)
		mux = addMux(mux, k.MuxStatus())
		for _, t := range k.Tasks() {
			shares = append(shares, float64(t.BusyTime()-start.taskBusy[t])/t.ShareWeight())
			if st.srv == nil {
				completed += t.CompletedRequests()
				backlog += int64(t.PendingRequests())
			}
		}
	}
	for _, d := range st.dfqs {
		cycles += d.Cycles
		denials += d.Denials
		lead = max(lead, int64(d.MaxLead))
		violations += d.LeadViolations
	}
	if st.srv == nil {
		completed -= start.done
	} else {
		var arrivals, flushes, batched, samples int64
		var cold sim.Duration
		for i := range st.streams {
			s := st.srv.Stats(i)
			samples += s.Latency.N()
			arrivals += s.Arrivals
			refused += s.Shed
			aborted += s.Aborted
			completed += s.Completed
			flushes += s.Flushes
			batched += s.Batched
			cold += s.ColdTime
		}
		backlog = int64(st.srv.Fleet().QueueDepth())
		counters["traffic.arrivals"] = float64(arrivals)
		counters["traffic.shed"] = float64(refused)
		counters["traffic.aborted"] = float64(aborted)
		counters["traffic.flushes"] = float64(flushes)
		counters["traffic.batched"] = float64(batched)
		counters["fleet.queue_depth_end"] = float64(backlog)
		counters["fleet.cold_ms"] = float64(cold) / 1e6
		counters["metrics.samples"] = float64(samples)
	}
	attempted = completed + refused + aborted + backlog

	var busy sim.Duration
	for i, d := range st.devs {
		busy += d.TotalBusy() - start.busy[i]
	}
	model["model.p99_ms"] = st.lat.quantile(0.99) / 1e6
	model["model.victim_p90_ms"] = st.victimLat.quantile(0.9) / 1e6
	model["model.goodput_per_s"] = float64(completed) / window.Seconds()
	model["model.jain"] = metrics.JainIndex(shares)
	model["model.util"] = float64(busy) / float64(window) / float64(len(st.devs))
	model["served_frac"] = float64(completed) / float64(max(attempted, 1))

	counters["sim.live_procs"] = float64(st.eng.LiveProcs())
	counters["neon.faults_per_kreq"] = 1e3 * float64(faults-start.faults) / float64(max(completed, 1))
	counters["neon.mux.reattaches"] = float64(mux.Reattaches - start.mux.Reattaches)
	counters["neon.mux.evictions"] = float64(mux.Evictions - start.mux.Evictions)
	counters["neon.mux.attach_waits"] = float64(mux.AttachWaits - start.mux.AttachWaits)
	counters["neon.mux.max_attached"] = float64(mux.MaxAttached)
	counters["core.cycles"] = float64(cycles - start.cycles)
	counters["core.denials"] = float64(denials - start.denials)
	counters["core.max_lead_us"] = float64(lead) / 1e3
	counters["core.lead_violations"] = float64(violations)
	return model, counters, completed, attempted
}

// check returns the first invariant the episode, whose window began at
// start, violates, or "".
func (st *stack) check(ep *episode, start mark) string {
	c := ep.Counters
	for _, a := range st.apps {
		if err := a.SetupError(); err != nil {
			return fmt.Sprintf("setup error: app %s: %v", a.Spec.Name, err)
		}
	}
	if v := c["core.lead_violations"]; v != 0 {
		return fmt.Sprintf("core.lead_violations == %v, want 0", v)
	}
	for _, d := range st.devs {
		if limit := d.Config().MaxContexts; int(c["neon.mux.max_attached"]) > limit {
			return fmt.Sprintf("neon.mux.max_attached == %v exceeds the %d-context cap", c["neon.mux.max_attached"], limit)
		}
	}
	if st.tenants > 0 {
		live := 0
		for _, k := range st.kernels {
			live += len(k.Tasks())
		}
		if live != st.tenants {
			return fmt.Sprintf("live tasks == %d, want %d tenants", live, st.tenants)
		}
	}
	if st.srv != nil {
		if err := st.srv.SetupError(); err != nil {
			return fmt.Sprintf("setup error: %v", err)
		}
		// In-flight requests carry across the window start, so the
		// conservation law holds with the opening backlog on the left.
		in := int64(c["traffic.arrivals"]) + int64(start.depth)
		out := int64(c["traffic.shed"]+c["traffic.aborted"]+c["fleet.queue_depth_end"]) + ep.Completed
		if in != out {
			return fmt.Sprintf("arrivals + opening backlog (%d) != shed + completed + aborted + closing backlog (%d)", in, out)
		}
	}
	if ep.Completed == 0 {
		return "no request completed in the measured window"
	}
	for name, v := range ep.Model {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Sprintf("%s == %v, want a positive value", name, v)
		}
	}
	for _, name := range []string{"model.jain", "served_frac"} {
		if v := ep.Model[name]; v > 1 {
			return fmt.Sprintf("%s == %v exceeds 1", name, v)
		}
	}
	return ""
}
