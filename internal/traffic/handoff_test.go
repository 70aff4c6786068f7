package traffic

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestServeRunsOnContinuations pins, exactly and host-independently,
// how little of the serving path still runs as processes. On a fixed
// seed, serve-shaped population (five open-loop streams over a 2-device
// sticky DFQ fleet below the knee):
//
//   - no arrival generator or dispatcher is a process: the live
//     processes are exactly one scheduler loop per node;
//   - nothing on the serving path hands off: the activations left are
//     the DFQ loops' own (0.061 per completed request here), where
//     running arrivals, dispatch, and sampling watchers as processes
//     cost about 3.5 and the dispatchers' slow lanes, running engaged
//     faults, 0.44.
func TestServeRunsOnContinuations(t *testing.T) {
	eng := sim.NewEngine()
	rate := func(weight float64, size sim.Duration) float64 { return 1.2 * weight / size.Seconds() }
	srv, err := New(eng, Config{
		Fleet: fleet.Config{
			Devices:  2,
			Policy:   fleet.NewLocalitySticky(48),
			Sched:    "dfq",
			RunLimit: time.Second,
			Seed:     1,
		},
		AdmitDepth: 96,
		Streams: []Stream{
			{Tenant: workload.OpenLoopTenant("user-a", 250*us, 500*us), Arrival: Poisson{Rate: rate(0.175, 250*us)}},
			{Tenant: workload.OpenLoopTenant("user-b", 250*us, 500*us), Arrival: Poisson{Rate: rate(0.175, 250*us)}},
			{Tenant: workload.OpenLoopTenant("web", 200*us, 400*us),
				Arrival: Diurnal{Base: rate(0.15, 200*us), Amplitude: 0.8, Period: 100 * time.Millisecond}},
			{Tenant: workload.OpenLoopTenant("victim", 80*us, 150*us), Arrival: Deterministic{Rate: rate(0.05, 80*us)}},
			{Tenant: workload.OpenLoopTenant("adversary", 500*us, 800*us),
				Arrival: NewMMPP(0, 4*rate(0.45, 500*us), 30*time.Millisecond, 10*time.Millisecond)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(200 * time.Millisecond)
	if err := srv.SetupError(); err != nil {
		t.Fatal(err)
	}
	srv.ResetStats()
	act0 := eng.Activations()
	eng.RunFor(time.Second)

	var completed int64
	for i := range srv.streams {
		completed += srv.Stats(i).Completed
	}
	if got, want := eng.LiveProcs(), len(srv.Fleet().Nodes()); got != want {
		t.Errorf("%d live processes, want exactly %d scheduler loops", got, want)
	}
	if completed < 1000 {
		t.Fatalf("only %d requests completed: the population is not being served", completed)
	}
	per := float64(eng.Activations()-act0) / float64(completed)
	t.Logf("%d completions, %d activations (%.3f per request), %d live processes",
		completed, eng.Activations()-act0, per, eng.LiveProcs())
	if per >= 0.1 {
		t.Errorf("%.3f process activations per completed request, want < 0.1", per)
	}
}

// TestStormRunsOnContinuations pins the mux path's process cost on a
// storm-shaped population: 200 open-loop tenants, each on its own
// virtual context, share a 4-context device under DFQ, each firing once
// per 20 ms at a seeded stagger, so nearly every request evicts an
// idle context and reattaches its own. With the attach, the client
// open and the engaged fault running as engine machines:
//
//   - the mux decisions are exactly the blocking attach's (the
//     MuxStats below are the values the process-driven attach produced
//     at seed 1);
//   - the one live process is the scheduler loop: the dispatchers have
//     none;
//   - the activations left are the DFQ loop's own (0.204 per completed
//     request here: its drain scans and polls and its sampling
//     windows), where sleeping a process through each attach step cost
//     5.76 and the dispatchers' slow lanes, running engaged faults,
//     0.35 more.
func TestStormRunsOnContinuations(t *testing.T) {
	const tenants, gap = 200, 20 * time.Millisecond
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	streams := make([]Stream, tenants)
	for i := range streams {
		phase := 1 + sim.Duration(rng.Float64()*float64(gap-1))
		streams[i] = Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%03d", i), 5*us, 0),
			Arrival: &Staggered{Phase: phase, Gap: gap},
		}
	}
	srv, err := New(eng, Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: 4},
			Sched:   "dfq",
			DFQ:     core.DFQConfig{SamplePeriod: 500 * us, SampleRequests: 4},
			Seed:    1,
		},
		Streams: streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(gap + 2*time.Millisecond)
	if err := srv.SetupError(); err != nil {
		t.Fatal(err)
	}
	srv.ResetStats()
	act0 := eng.Activations()
	eng.RunFor(200 * time.Millisecond)

	var completed int64
	for i := range streams {
		completed += srv.Stats(i).Completed
	}
	k := srv.Fleet().Nodes()[0].Kernel
	mux := k.MuxStatus()
	per := float64(eng.Activations()-act0) / float64(completed)
	t.Logf("%d completions, %d activations (%.3f per request), %d live processes, mux %+v",
		completed, eng.Activations()-act0, per, eng.LiveProcs(), mux)
	if got := eng.LiveProcs(); got != 1 {
		t.Errorf("%d live processes, want exactly the scheduler loop", got)
	}
	if completed != 2000 {
		t.Errorf("%d completions, want 2000: every tenant served every 20 ms", completed)
	}
	want := neon.MuxStats{Opens: 200, Attaches: 2222, Reattaches: 2022, Evictions: 2219, AttachWaits: 223, MaxAttached: 4}
	if mux != want {
		t.Errorf("mux stats %+v, want %+v", mux, want)
	}
	if per >= 0.25 {
		t.Errorf("%.3f process activations per completed request, want < 0.25", per)
	}
}

// TestStaggeredTenantsHeapPerTenant bounds what an idle-most-of-the-time
// tenant costs to hold: a 10³-tenant staggered population, built and
// run for one arrival gap (every tenant opened, served once, its
// latency digest started), retains under 8 KB of heap per tenant. A
// tenant pays no process, no math/rand source for an arrival process
// that draws nothing, and a latency digest sized to the buckets it has
// seen; with a parked dispatcher process, two eagerly seeded sources
// and dense digests it held about 19 KB.
func TestStaggeredTenantsHeapPerTenant(t *testing.T) {
	const tenants, gap, bound = 1000, 20 * time.Millisecond, 8 << 10
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	streams := make([]Stream, tenants)
	for i := range streams {
		phase := 1 + sim.Duration(rng.Float64()*float64(gap-1))
		streams[i] = Stream{
			Tenant:  workload.OpenLoopTenant(fmt.Sprintf("t%04d", i), 5*us, 0),
			Arrival: &Staggered{Phase: phase, Gap: gap},
		}
	}
	srv, err := New(eng, Config{
		Fleet: fleet.Config{
			Devices: 1,
			GPU:     gpu.Config{MaxContexts: 48},
			Sched:   "dfq",
			DFQ:     core.DFQConfig{SamplePeriod: 500 * us, SampleRequests: 4},
			Seed:    1,
		},
		Streams: streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(gap)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	var done int64
	for i := range streams {
		done += srv.Stats(i).Completed
	}
	per := (int64(m1.HeapAlloc) - int64(m0.HeapAlloc)) / tenants
	t.Logf("%d B of heap per tenant, %d completions", per, done)
	if done < tenants/2 {
		t.Fatalf("only %d completions in one gap: the population is not being served", done)
	}
	if per > bound {
		t.Errorf("%d B of heap per tenant, want under %d", per, bound)
	}
	runtime.KeepAlive(srv)
}
