package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exp"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// benchOpts shrinks measurement windows so the full bench suite stays
// fast; the shapes reported are the same as `neonsim -exp all`.
func benchOpts() exp.Options {
	o := exp.Quick()
	o.Warmup = 30 * time.Millisecond
	o.Measure = 120 * time.Millisecond
	return o
}

// benchExperiment regenerates one paper artifact per iteration and
// reports simulated-vs-wall time.
func benchExperiment(b *testing.B, id string) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(opts)
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// One benchmark per table/figure of the paper (DESIGN.md Section 3).

func BenchmarkTable1(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)           { benchExperiment(b, "fig2") }
func BenchmarkSec3Throughput(b *testing.B) { benchExperiment(b, "sec3") }
func BenchmarkFig4(b *testing.B)           { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)           { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)           { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)           { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)          { benchExperiment(b, "fig10") }
func BenchmarkProtection(b *testing.B)     { benchExperiment(b, "protect") }
func BenchmarkSec63DoS(b *testing.B)       { benchExperiment(b, "sec63") }
func BenchmarkAblationStats(b *testing.B)  { benchExperiment(b, "ablation-stats") }
func BenchmarkAblationParams(b *testing.B) { benchExperiment(b, "ablation-params") }

// benchExperimentAt regenerates one artifact per iteration at a fixed
// scenario-pool width; comparing widths measures the harness speedup
// (the fig6 pair is the acceptance gate for the parallel harness).
func benchExperimentAt(b *testing.B, id string, parallel int) {
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := benchOpts()
	opts.Parallel = parallel
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table := e.Run(opts)
		if len(table.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig6Serial(b *testing.B)    { benchExperimentAt(b, "fig6", 1) }
func BenchmarkFig6Parallel4(b *testing.B) { benchExperimentAt(b, "fig6", 4) }
func BenchmarkFig4Serial(b *testing.B)    { benchExperimentAt(b, "fig4", 1) }
func BenchmarkFig4Parallel4(b *testing.B) { benchExperimentAt(b, "fig4", 4) }
func BenchmarkFig9Serial(b *testing.B)    { benchExperimentAt(b, "fig9", 1) }
func BenchmarkFig9Parallel4(b *testing.B) { benchExperimentAt(b, "fig9", 4) }
func BenchmarkServeSerial(b *testing.B)   { benchExperimentAt(b, "serve", 1) }
func BenchmarkServeParallel4(b *testing.B) {
	benchExperimentAt(b, "serve", 4)
}
func BenchmarkHeteroSerial(b *testing.B)    { benchExperimentAt(b, "hetero", 1) }
func BenchmarkHeteroParallel4(b *testing.B) { benchExperimentAt(b, "hetero", 4) }

// BenchmarkSimEngine measures raw event throughput of the simulation
// substrate: how many scheduled callbacks the engine dispatches per
// second of wall time. The engine is Reset between iterations, so the
// allocation-free reuse path is what is measured.
func BenchmarkSimEngine(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	for i := 0; i < b.N; i++ {
		eng.Reset()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 100000 {
				eng.After(time.Microsecond, tick)
			}
		}
		eng.After(0, tick)
		eng.Run()
		if n != 100000 {
			b.Fatalf("dispatched %d events", n)
		}
	}
}

// BenchmarkRequestPath measures the full submission path: stage, doorbell
// store, device execution, reference-counter completion, user wakeup.
func BenchmarkRequestPath(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, benchNoSched{})
	t := k.NewTask("bench")
	done := 0
	t.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, k, t, "bench", gpu.Compute)
		if err != nil {
			return
		}
		for {
			r, _, _ := client.Submit(gpu.Compute, 10*time.Microsecond, nil, nil)
			p.Wait(r.DoneGate())
			done++
			// The request is fully retired (the process waited out the
			// completion); recycle it so the steady state does not allocate.
			r.Release()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

// BenchmarkRequestPathAsync is BenchmarkRequestPath driven by the
// continuation API (DESIGN.md §14): the client is a self-rescheduling
// machine — stage, async doorbell, resubmit from the completion hook in
// engine context — so no process parks or unparks per request. The
// sync/async pair prices the per-request goroutine handoff; the async
// steady state must stay at 0 allocs/op (gated absolutely in CI once
// recorded at zero).
func BenchmarkRequestPathAsync(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, benchNoSched{})
	t := k.NewTask("bench")
	done := 0
	t.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, k, t, "bench", gpu.Compute)
		if err != nil {
			return
		}
		var again func(r *gpu.Request)
		again = func(r *gpu.Request) {
			done++
			r.Release()
			client.Submit(gpu.Compute, 10*time.Microsecond, again, nil)
		}
		client.Submit(gpu.Compute, 10*time.Microsecond, again, nil)
	})
	// Settle setup (task, client, first staged request) and fill the
	// request pool so the timed region is the steady state.
	eng.RunFor(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

// benchClosedLoop measures an 8-client closed-loop population on one
// device: sync keeps one parked process per in-flight request, async
// runs the same loops as continuation machines with no process after
// setup. The pair prices the park/unpark at population, where the
// run queue churn is, not just on the single-client hot path.
func benchClosedLoop(b *testing.B, async bool) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, benchNoSched{})
	done := 0
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("cl%d", i)
		t := k.NewTask(name)
		t.Go("main", func(p *sim.Proc) {
			client, err := userlib.Open(p, k, t, name, gpu.Compute)
			if err != nil {
				return
			}
			if !async {
				for {
					r, _, _ := client.Submit(gpu.Compute, 10*time.Microsecond, nil, nil)
					p.Wait(r.DoneGate())
					done++
					r.Release()
				}
			}
			var again func(r *gpu.Request)
			again = func(r *gpu.Request) {
				done++
				r.Release()
				client.Submit(gpu.Compute, 10*time.Microsecond, again, nil)
			}
			client.Submit(gpu.Compute, 10*time.Microsecond, again, nil)
		})
	}
	eng.RunFor(time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(time.Millisecond)
	}
	if done == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(done)/float64(b.N), "requests/ms-simulated")
}

func BenchmarkClosedLoopSync(b *testing.B)  { benchClosedLoop(b, false) }
func BenchmarkClosedLoopAsync(b *testing.B) { benchClosedLoop(b, true) }

// BenchmarkDFQCycle measures the cost of whole engagement/free-run cycles
// with two saturating tasks.
func BenchmarkDFQCycle(b *testing.B) {
	b.ReportAllocs()
	opts := benchOpts()
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(64*time.Microsecond, 0)
	rig := exp.NewRig(exp.DFQ, opts, dct, thr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Engine.RunFor(30 * time.Millisecond)
	}
}

// BenchmarkDFQCycleConsumerClass is BenchmarkDFQCycle on a
// consumer-class device: the same engagement/free-run machinery with
// the class-factor conversion (Work normalization, scaled execution) on
// every hot path. Comparing the pair isolates the cost of
// heterogeneity-normalized accounting.
func BenchmarkDFQCycleConsumerClass(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.Class, _ = cost.ClassByName("consumer")
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, core.NewDisengagedFairQueueing(core.DefaultDFQConfig()))
	k.RequestRunLimit = time.Second
	dct, _ := workload.ByName("DCT")
	thr := workload.Throttle(64*time.Microsecond, 0)
	rng := sim.NewRNG(1)
	workload.Launch(k, dct, rng.ForkNamed("app", 0))
	workload.Launch(k, thr, rng.ForkNamed("app", 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(30 * time.Millisecond)
	}
}

// benchDFQCycleTenants measures one indexed-ledger engagement cycle at
// a fixed registered population: engage a 256-flow working set, charge
// weighted shares, advance the system virtual time, expire the set.
// Only active flows live in the ledger's heap, so ns/op and allocs/op
// must stay flat while the registered population grows 10^2 -> 10^5 —
// the scale experiment's sub-linearity claim restated as a steady-state
// benchmark (allocs/op settles at 0, which CI gates absolutely).
func benchDFQCycleTenants(b *testing.B, tenants int) {
	b.ReportAllocs()
	led := core.NewDFQLedger(core.IndexedLedger)
	led.Grow(tenants)
	ids := make([]core.FlowID, tenants)
	for i := range ids {
		ids[i] = led.Add()
	}
	working := 256
	if working > tenants {
		working = tenants
	}
	rng := sim.NewRNG(1)
	picks := make([]int, working)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range picks {
			picks[k] = rng.Intn(tenants)
			led.SetActive(ids[picks[k]], true)
		}
		for _, t := range picks {
			led.Charge(ids[t], core.PerWeight(core.WorkFor(100*time.Microsecond, 1), float64(1+t%4)))
		}
		led.AdvanceSysVT()
		for _, t := range picks {
			led.SetActive(ids[t], false)
		}
	}
}

func BenchmarkDFQCycleTenants1e2(b *testing.B) { benchDFQCycleTenants(b, 100) }
func BenchmarkDFQCycleTenants1e4(b *testing.B) { benchDFQCycleTenants(b, 10_000) }
func BenchmarkDFQCycleTenants1e5(b *testing.B) { benchDFQCycleTenants(b, 100_000) }

// BenchmarkDFQEpisodeTenants1e4 is the scheduler-layer rung above the
// ledger-only DFQCycleTenants trio: whole DFQ engagement/free-run cycles
// (barrier, drain, virtual-time maintenance, free-run grant) on a kernel
// hosting 10^4 registered tasks. Four weighted tenants stay backlogged —
// parked waiting for a hardware context that an idle raw client holds,
// as storm's tenants queue for the 48-slot pool — so every episode
// marks them active, charges them, checks their leads and denies the
// one furthest ahead, while they hold no channel a sampling run could
// observe. Each episode still walks, engages and drains all 10^4 tasks,
// so allocs/op is the per-tenant cost of the episode around the ledger;
// it sits at 0 (task scheduler state on neon.Task.Sched, drain targets
// and stamps on channels and tasks, reused walk buffers) and CI gates it
// absolutely.
func BenchmarkDFQEpisodeTenants1e4(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = 1
	dev := gpu.New(eng, cfg)
	dfq := core.NewDisengagedFairQueueing(core.DefaultDFQConfig())
	k := neon.NewKernel(dev, dfq)
	holder := k.NewTask("holder")
	holder.Go("open", func(p *sim.Proc) {
		ctx, err := k.CreateContext(p, holder, "holder")
		if err == nil {
			_, err = k.CreateChannel(p, holder, ctx, gpu.Compute)
		}
		if err != nil {
			b.Error(err)
		}
	})
	eng.RunFor(time.Millisecond)
	for i := 0; i < 10_000; i++ {
		k.NewTask(fmt.Sprintf("idle-%05d", i))
	}
	for w := 1; w <= 4; w++ {
		t := k.NewTask(fmt.Sprintf("backlogged-%d", w))
		t.Weight = float64(w)
		t.Go("open", func(p *sim.Proc) {
			vc, err := k.OpenVirtual(p, t, t.Name, gpu.Compute)
			if err == nil {
				_, err = vc.Acquire(p, gpu.Compute) // waits for a slot forever
			}
			if err != nil {
				b.Error(err)
			}
		})
	}
	// Warm up until every reused buffer has grown and some tenant has
	// been denied a free run.
	eng.RunFor(300 * time.Millisecond)
	if dfq.Denials == 0 {
		b.Fatal("warm-up denied no backlogged tenant")
	}
	cycles := dfq.Cycles
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(30 * time.Millisecond)
	}
	b.ReportMetric(float64(dfq.Cycles-cycles)/float64(b.N), "cycles/op")
}

// BenchmarkMuxReattach prices the neon virtual-context mux's evict and
// reattach cycle (DESIGN.md §13): 64 logical contexts share a
// 4-context device, and each op is the next context in rotation
// acquiring, submitting one request, and releasing — so every op
// evicts the least-recently-used idle context and reattaches its own,
// paying two setup syscalls and a context switch in simulated time.
// The client blocks through Acquire, the thin wrapper over the engine
// attach machine; what remains per op is the hardware context,
// channel, and register page the reattach rebuilds.
func BenchmarkMuxReattach(b *testing.B) {
	b.ReportAllocs()
	const contexts, tenants = 4, 64
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = contexts
	k := neon.NewKernel(gpu.New(eng, cfg), benchNoSched{})
	vcs := make([]*neon.VContext, tenants)
	next := 0
	rotate := func(n int) {
		eng.Spawn("rotate", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				vc := vcs[next%tenants]
				next++
				ch, err := vc.Acquire(p, gpu.Compute)
				if err != nil {
					b.Error(err)
					return
				}
				r := ch.Stage(time.Microsecond, gpu.Compute)
				ch.Reg.Store(p, r.Ref)
				vc.Release()
				p.Wait(r.DoneGate())
				r.Release()
			}
		})
		eng.Run()
	}
	eng.Spawn("open", func(p *sim.Proc) {
		for i := range vcs {
			t := k.NewTask(fmt.Sprintf("vc-%02d", i))
			var err error
			if vcs[i], err = k.OpenVirtual(p, t, t.Name, gpu.Compute); err != nil {
				b.Error(err)
			}
		}
	})
	eng.Run()
	rotate(2 * tenants)
	before := k.MuxStatus().Reattaches
	b.ResetTimer()
	rotate(b.N)
	b.StopTimer()
	if got := k.MuxStatus().Reattaches - before; got != int64(b.N) {
		b.Fatalf("%d reattaches in %d ops, want one per op", got, b.N)
	}
}

// BenchmarkEngagedFault prices one engaged-register fault (DESIGN.md
// §14): the channel stays engaged and the scheduler lets the task run,
// so each op is a task thread's faulting store of a staged request —
// the FaultTrap, the kernel's FaultScan and scheduler check, the
// single-stepped doorbell — then the request's execution and
// completion. The store is the blocking wrapper over the fault
// machine: the thread parks once and is resumed where the store is
// delivered. The kernel pools the fault records, so the steady state
// allocates nothing.
func BenchmarkEngagedFault(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	k := neon.NewKernel(gpu.New(eng, gpu.DefaultConfig()), benchEngaged{})
	t := k.NewTask("faulting")
	next := eng.NewGate("next")
	t.Go("store", func(p *sim.Proc) {
		c, err := userlib.Open(p, k, t, "faulting", gpu.Compute)
		if err != nil {
			b.Error(err)
			return
		}
		ch := c.Channel(gpu.Compute)
		for {
			p.Wait(next)
			r := ch.Stage(time.Microsecond, gpu.Compute)
			ch.Reg.Store(p, r.Ref)
			p.Wait(r.DoneGate())
			r.Release()
		}
	})
	eng.Run()
	fault := func() {
		next.Signal()
		eng.Run()
	}
	fault()
	faults := k.TotalFaults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fault()
	}
	b.StopTimer()
	if got := k.TotalFaults - faults; got != int64(b.N) {
		b.Fatalf("%d faults in %d ops, want one per op", got, b.N)
	}
}

// benchEngaged keeps every channel engaged and lets every task run: each
// submission faults and is let through at once.
type benchEngaged struct{ benchNoSched }

func (benchEngaged) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(false) }

// BenchmarkServerBuild1e3 prices a 10³-tenant server's set-up, the
// storm workload's shape at a tenth of its population: traffic.New of
// staggered open-loop tenants on one 48-context DFQ device, then one
// arrival gap, in which every tenant's dispatcher opens its client and
// serves its first request. Each tenant costs a task, a virtual
// context, a dispatcher and its bound callbacks; its arrival stream's
// math/rand source is never built (Staggered draws nothing) and it
// runs no process.
func BenchmarkServerBuild1e3(b *testing.B) {
	b.ReportAllocs()
	const tenants, gap = 1000, 20 * time.Millisecond
	streams := make([]traffic.Stream, tenants)
	for i := range streams {
		streams[i].Tenant = workload.OpenLoopTenant(fmt.Sprintf("t%04d", i), 5*time.Microsecond, 0)
	}
	for i := 0; i < b.N; i++ {
		for j := range streams {
			phase := 1 + sim.Duration(j)*(gap-1)/tenants
			streams[j].Arrival = &traffic.Staggered{Phase: phase, Gap: gap}
		}
		eng := sim.NewEngine()
		srv, err := traffic.New(eng, traffic.Config{
			Fleet: fleet.Config{
				Devices: 1,
				GPU:     gpu.Config{MaxContexts: 48},
				Sched:   "dfq",
				DFQ:     core.DFQConfig{SamplePeriod: 500 * time.Microsecond, SampleRequests: 4},
				Seed:    1,
			},
			Streams: streams,
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.RunFor(gap)
		if err := srv.SetupError(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoardReconcile measures one fleet reconciliation episode on
// a board already holding 10^4 registered, fleet-active principals: 64
// charges plus activity marks folded into the sharded ledger through
// the batch exchange (the surface the per-device schedulers use), leads
// written back in place. The episode's cost tracks its own size
// (charges, shard heads), not the registered population — and the
// reusable slice-of-struct batch makes the steady state allocation-free
// where the old map-keyed exchange allocated both maps and the lead map
// every episode.
func BenchmarkBoardReconcile(b *testing.B) {
	b.ReportAllocs()
	const principals = 10_000
	board := fleet.NewBoard()
	board.Grow(principals)
	pids := make([]core.PrincipalID, principals)
	reg := make([]core.EpisodeEntry, principals)
	for i := range pids {
		pids[i] = board.Principal(fmt.Sprintf("tenant-%06d", i))
		reg[i] = core.EpisodeEntry{Principal: pids[i], Marked: true, Active: true}
	}
	board.ReconcileEpisodeBatch("dev0", reg)
	rng := sim.NewRNG(1)
	batch := make([]core.EpisodeEntry, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = batch[:0]
		for k := 0; k < 64; k++ {
			batch = append(batch, core.EpisodeEntry{
				Principal: pids[rng.Intn(principals)],
				Charge:    core.WorkFor(100*time.Microsecond, 1),
				Marked:    true,
				Active:    true,
			})
		}
		board.ReconcileEpisodeBatch("dev0", batch)
	}
}

// benchPlaceRequest measures the request-level placement hot path on an
// 8-node mixed-class fleet: one policy.Pick plus depth accounting per
// iteration. The fastest-fit/sticky pair shows what the class-factor
// scoring costs over the class-blind policy.
func benchPlaceRequest(b *testing.B, policyName string) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	policy, err := fleet.NewPolicy(policyName)
	if err != nil {
		b.Fatal(err)
	}
	f, err := fleet.New(eng, fleet.Config{
		Devices: 8,
		Classes: []string{"k20", "consumer", "nextgen", "consumer"},
		Policy:  policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	tn := f.NewTenant(workload.OpenLoopTenant("bench", 100*time.Microsecond, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := f.PlaceRequest(tn)
		f.RequestDone(n)
	}
}

func BenchmarkPlaceRequestMixedSticky(b *testing.B)      { benchPlaceRequest(b, "sticky") }
func BenchmarkPlaceRequestMixedFastestFit(b *testing.B)  { benchPlaceRequest(b, "fastest-fit") }
func BenchmarkPlaceRequestMixedClassSticky(b *testing.B) { benchPlaceRequest(b, "class-sticky") }

type benchNoSched struct{}

func (benchNoSched) Name() string                           { return "none" }
func (benchNoSched) Start(*neon.Kernel)                     {}
func (benchNoSched) TaskAdmitted(*neon.Task)                {}
func (benchNoSched) TaskExited(*neon.Task)                  {}
func (benchNoSched) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(true) }
func (benchNoSched) MayRun(*neon.Task) bool                 { return true }
