package main

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

const (
	us = time.Microsecond
	ms = time.Millisecond

	// closedJitter bounds the seed's perturbation of the closed apps.
	closedJitter = 0.02
)

// plan fixes one workload's shape: how to build the stack from a seed,
// how long to warm it up, and the simulated slices the measured window
// is cut into. The horizon is fixed in simulated time, so every model
// output of an episode is a pure function of the seed.
type plan struct {
	build  func(seed int64) (*stack, error)
	warmup sim.Duration
	slice  sim.Duration
	slices int
}

// plans are the benchmark's workloads. README.md records why each one
// exists and which layers it loads.
var plans = map[string]plan{
	"closed": {build: buildClosed, warmup: 200 * ms, slice: 500 * ms, slices: 200},
	"serve":  {build: buildServe, warmup: 200 * ms, slice: 500 * ms, slices: 200},
	"storm":  {build: buildStorm, warmup: stormGap + 20*ms, slice: 5 * ms, slices: 200},
}

// workloadNames lists the workloads in the order the README presents them.
var workloadNames = []string{"closed", "serve", "storm"}

// stack is one assembled workload: a single engine and every layer the
// workload drives, as built from the layer packages' public constructors.
type stack struct {
	eng     *sim.Engine
	devs    []*gpu.Device
	kernels []*neon.Kernel
	dfqs    []*core.DisengagedFairQueueing

	// lat and victimLat hold the sojourn of every request completed in
	// the measured window, and of the victims' requests alone: every
	// tenant but the workload's adversary.
	lat, victimLat latHist

	apps []*workload.App // closed

	// serve and storm: the open-loop server and its streams.
	srv     *traffic.Server
	streams []traffic.Stream
	tenants int // storm population, checked against live tasks
}

// observe chains a completion observer onto every device that records
// each completed request's sojourn, from the instant start returns to
// completion, in st.lat, and in st.victimLat when victim holds for the
// name of the request's task. Requests for which start reports false
// are not counted. The histograms are the benchmark's own, so recording
// them loads no layer of the stack; the observer never changes the
// simulation.
func (st *stack) observe(victim func(task string) bool, start func(*gpu.Request) (sim.Time, bool)) {
	for i, dev := range st.devs {
		k := st.kernels[i]
		victims := make(map[gpu.TaskID]bool)
		prev := dev.CompletionObserver
		dev.CompletionObserver = func(r *gpu.Request) {
			if prev != nil {
				prev(r)
			}
			t0, ok := start(r)
			if r.Aborted || !ok {
				return
			}
			d := r.Completed.Sub(t0)
			st.lat.add(d)
			owner := r.Channel().Ctx.Owner
			v, seen := victims[owner]
			if !seen {
				if t := k.TaskFor(owner); t != nil {
					v = victim(t.Name)
				}
				victims[owner] = v
			}
			if v {
				st.victimLat.add(d)
			}
		}
	}
}

// buildClosed is the paper's own setting: one device at the paper's
// defaults under DFQ, five closed-loop applications, one of them a
// saturating Throttle; the other four are its victims. The apps
// themselves draw nothing at random, so the seed perturbs their specs:
// every CPU think time and request size is jittered by up to
// closedJitter.
func buildClosed(seed int64) (*stack, error) {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.GraphicsPenalty = 3
	cfg.Costs = cost.Default()
	dev := gpu.New(eng, cfg)
	dfq := core.NewDisengagedFairQueueing(core.DefaultDFQConfig())
	k := neon.NewKernel(dev, dfq)
	k.RequestRunLimit = time.Second

	var specs []workload.Spec
	for _, name := range []string{"BinarySearch", "DCT", "MatrixMultiplication", "glxgears"} {
		s, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("closed: no Table 1 spec %q", name)
		}
		specs = append(specs, s)
	}
	specs = append(specs, workload.Throttle(400*us, 0))
	rng := sim.NewRNG(seed)
	for i := range specs {
		r := rng.ForkNamed("spec", i)
		specs[i].CPU = r.Jitter(specs[i].CPU, closedJitter)
		specs[i].Mix = slices.Clone(specs[i].Mix)
		for j := range specs[i].Mix {
			specs[i].Mix[j].Size = r.Jitter(specs[i].Mix[j].Size, closedJitter)
		}
	}

	st := &stack{eng: eng, devs: []*gpu.Device{dev}, kernels: []*neon.Kernel{k},
		dfqs: []*core.DisengagedFairQueueing{dfq}}
	for i, s := range specs {
		st.apps = append(st.apps, workload.Launch(k, s, rng.ForkNamed("app", i)))
	}
	// A closed-loop request's sojourn runs from its submission to the
	// device.
	st.observe(func(task string) bool { return task != "Throttle" }, func(r *gpu.Request) (sim.Time, bool) {
		return r.Submitted, true
	})
	return st, nil
}

// Serve population: two Poisson user aggregates, one diurnal web stream,
// one deterministic victim probe and one MMPP burst adversary, rated so
// the offered device time is serveLoad x serveDevices. The load sits
// below the knee on purpose: a 4-device fleet at the same load sheds a
// quarter or more of its arrivals and would measure refusals, not
// serving.
const (
	serveDevices    = 2
	serveLoad       = 0.6
	serveAdmitDepth = 48 // per device
)

func buildServe(seed int64) (*stack, error) {
	eng := sim.NewEngine()
	budget := serveLoad * serveDevices
	rate := func(weight float64, size sim.Duration) float64 { return budget * weight / size.Seconds() }
	streams := []traffic.Stream{
		{Tenant: workload.OpenLoopTenant("user-a", 250*us, 500*us),
			Arrival: traffic.Poisson{Rate: rate(0.175, 250*us)}},
		{Tenant: workload.OpenLoopTenant("user-b", 250*us, 500*us),
			Arrival: traffic.Poisson{Rate: rate(0.175, 250*us)}},
		{Tenant: workload.OpenLoopTenant("web", 200*us, 400*us),
			Arrival: traffic.Diurnal{Base: rate(0.15, 200*us), Amplitude: 0.8, Period: 100 * ms}},
		{Tenant: workload.OpenLoopTenant("victim", 80*us, 150*us),
			Arrival: traffic.Deterministic{Rate: rate(0.05, 80*us)}},
		{Tenant: workload.OpenLoopTenant("adversary", 500*us, 800*us),
			Arrival: traffic.NewMMPP(0, 4*rate(0.45, 500*us), 30*ms, 10*ms)},
	}
	srv, err := traffic.New(eng, traffic.Config{
		Fleet: fleet.Config{
			Devices:  serveDevices,
			Policy:   fleet.NewLocalitySticky(serveAdmitDepth),
			Sched:    "dfq",
			RunLimit: time.Second,
			Seed:     seed,
		},
		AdmitDepth: serveAdmitDepth * serveDevices,
		Streams:    streams,
	})
	if err != nil {
		return nil, err
	}
	st := fleetStack(eng, srv, streams)
	st.observe(func(task string) bool { return task != "adversary" }, arrival)
	return st, nil
}

// Storm population: stormTenants open-loop tenants on one device with
// stormContexts hardware contexts, each tenant a live task on its own
// virtual context, every one firing a stormSize request once per
// stormGap. Every tenant arrives once per gap, which keeps the mux
// evicting and reattaching. Phases are stratified: the gap is cut into
// one slot per tenant, the seed shuffles tenants over slots and jitters
// each phase inside its slot. Uniformly random phases would cluster,
// and the tail would then measure the seed's clusters, not the stack.
const (
	stormTenants  = 10_000
	stormContexts = 48
	stormSize     = 5 * us
	stormGap      = 200 * ms
)

func buildStorm(seed int64) (*stack, error) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(seed)
	streams := make([]traffic.Stream, stormTenants)
	slots := make([]int, stormTenants)
	for i := range slots {
		j := rng.Intn(i + 1)
		slots[i], slots[j] = slots[j], i
	}
	for i := range streams {
		phase := 1 + sim.Duration((float64(slots[i])+rng.Float64())*float64(stormGap-1)/stormTenants)
		streams[i] = traffic.Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%05d", i), stormSize, 0),
			Arrival: &traffic.Staggered{Phase: phase, Gap: stormGap},
		}
	}
	srv, err := traffic.New(eng, traffic.Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: stormContexts},
			Sched:   "dfq",
			DFQ:     core.DFQConfig{SamplePeriod: 500 * us, SampleRequests: 4},
			Seed:    seed,
		},
		Streams: streams,
	})
	if err != nil {
		return nil, err
	}
	st := fleetStack(eng, srv, streams)
	st.tenants = stormTenants
	// Storm has no adversary: every tenant is a victim.
	st.observe(func(string) bool { return true }, arrival)
	return st, nil
}

// arrival is an open-loop request's sojourn start: the arrival time the
// traffic dispatcher stamps on it. Unstamped requests (working-set
// rebuilds after a migration) are not user requests and are skipped;
// no arrival happens at time zero.
func arrival(r *gpu.Request) (sim.Time, bool) { return r.Stamp, r.Stamp != 0 }

// fleetStack collects the per-node layers of a traffic server's fleet.
func fleetStack(eng *sim.Engine, srv *traffic.Server, streams []traffic.Stream) *stack {
	st := &stack{eng: eng, srv: srv, streams: streams}
	for _, n := range srv.Fleet().Nodes() {
		st.devs = append(st.devs, n.Device)
		st.kernels = append(st.kernels, n.Kernel)
		if d := n.DFQ(); d != nil {
			st.dfqs = append(st.dfqs, d)
		}
	}
	return st
}

// latHist is a fixed-size log-linear histogram of simulated latencies:
// exact below 64 ns, then 64 linear sub-buckets per power-of-two octave.
// Adding allocates nothing.
type latHist struct {
	counts [64 * 58]int64
	n      int64
}

func (h *latHist) add(d sim.Duration) {
	v := uint64(max(d, 0))
	b := int(v)
	if v >= 64 {
		exp := bits.Len64(v) - 1
		b = (exp-5)<<6 + int((v>>(exp-6))&63)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile, interpolated linearly by rank inside
// the bucket that holds it, so that it moves with any change in the
// counts rather than in bucket-width steps (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	rank := q * float64(h.n)
	var cum int64
	for b, c := range h.counts {
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		lo, width := float64(b), 1.0
		if b >= 64 {
			shift := b>>6 - 1
			lo, width = float64(int64(64+b&63)<<shift), float64(int64(1)<<shift)
		}
		return lo + width*(rank-float64(cum))/float64(c)
	}
	return 0
}
