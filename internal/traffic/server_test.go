package traffic

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

const us = time.Microsecond

// oneStream builds a single-device server with one open-loop stream.
func oneStream(t *testing.T, sched string, admitDepth int, size sim.Duration, a Arrival) (*sim.Engine, *Server) {
	t.Helper()
	eng := sim.NewEngine()
	srv, err := New(eng, Config{
		Fleet:      fleet.Config{Devices: 1, Sched: sched, RunLimit: time.Second, Seed: 1},
		AdmitDepth: admitDepth,
		Streams: []Stream{
			{Tenant: workload.OpenLoopTenant("web", size, 0), Arrival: a},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// TestOpenLoopLatencyStamping: under direct access at light load, every
// completion carries a sojourn close to its service time, and goodput
// matches the offered rate.
func TestOpenLoopLatencyStamping(t *testing.T) {
	eng, srv := oneStream(t, "direct", 0, 200*us, Deterministic{Rate: 1000})
	eng.RunFor(500 * time.Millisecond)
	if err := srv.SetupError(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats(0)
	if st.Completed < 450 {
		t.Fatalf("completed %d of ~500 offered", st.Completed)
	}
	if st.Shed != 0 || st.Aborted != 0 {
		t.Fatalf("unexpected shed=%d aborted=%d at 20%% load", st.Shed, st.Aborted)
	}
	p50, p99 := st.Latency.Quantile(0.5), st.Latency.Quantile(0.99)
	if p50 < 200*us || p50 > 260*us {
		t.Fatalf("p50 sojourn %v, want ~service time 200µs", p50)
	}
	if p99 > 400*us {
		t.Fatalf("p99 sojourn %v at 20%% load, want well under 2x service", p99)
	}
}

// TestOpenLoopArrivalsIgnoreCompletions: open-loop means the source
// never slows down under overload — arrivals track the offered rate
// even when the device can serve a fraction of them.
func TestOpenLoopArrivalsIgnoreCompletions(t *testing.T) {
	// 3x overload: size 300µs at 10000/s offered on one device.
	eng, srv := oneStream(t, "direct", 0, 300*us, Deterministic{Rate: 10000})
	eng.RunFor(300 * time.Millisecond)
	st := srv.Stats(0)
	if st.Arrivals < 2900 || st.Arrivals > 3100 {
		t.Fatalf("arrivals %d, want ~3000: the source must not close the loop", st.Arrivals)
	}
	// Service keeps up with at most capacity (~3333/s -> ~1000).
	if st.Completed > 1100 {
		t.Fatalf("completed %d exceeds device capacity", st.Completed)
	}
	// No admission control: the backlog is the difference.
	if depth := srv.Fleet().QueueDepth(); depth < 1500 {
		t.Fatalf("queue depth %d, want ~2000 unserved requests queued", depth)
	}
}

// TestAdmissionBoundsQueueDepth: with a depth bound, overload turns
// into shed rate instead of unbounded queues, and sojourns stay
// bounded by the backlog the bound allows.
func TestAdmissionBoundsQueueDepth(t *testing.T) {
	eng, srv := oneStream(t, "direct", 32, 300*us, Deterministic{Rate: 10000})
	probe := func() {
		if depth := srv.Fleet().QueueDepth(); depth > 32 {
			t.Fatalf("queue depth %d exceeded admission bound 32", depth)
		}
	}
	for at := 10 * time.Millisecond; at < 300*time.Millisecond; at += 10 * time.Millisecond {
		eng.After(at, probe)
	}
	eng.RunFor(300 * time.Millisecond)
	st := srv.Stats(0)
	if st.ShedRate() < 0.5 {
		t.Fatalf("shed rate %.2f under 3x overload, want >= 0.5", st.ShedRate())
	}
	if st.Completed < 900 {
		t.Fatalf("completed %d: admission must not starve goodput", st.Completed)
	}
	// 32 queued requests of 300µs bound the sojourn at ~10ms.
	if p99 := st.Latency.Quantile(0.99); p99 > 15*time.Millisecond {
		t.Fatalf("p99 %v: admission should bound latency at depth*size", p99)
	}
}

// TestServeResetStats: warmup exclusion must clear counters but keep
// the system serving.
func TestServeResetStats(t *testing.T) {
	eng, srv := oneStream(t, "dfq", 64, 200*us, Poisson{Rate: 2000})
	eng.RunFor(100 * time.Millisecond)
	srv.ResetStats()
	if st := srv.Stats(0); st.Arrivals != 0 || st.Completed != 0 || st.Latency.N() != 0 {
		t.Fatal("ResetStats left stream counters behind")
	}
	eng.RunFor(200 * time.Millisecond)
	if st := srv.Stats(0); st.Completed == 0 {
		t.Fatal("no completions after ResetStats")
	}
}

// TestServeResetStatsKeepsDigestStorage: ResetStats clears each
// stream's latency digest in place. A completion that lands at or below
// the pre-reset maximum bucket then records without allocating, and the
// cleared digest reports exactly what a fresh one fed the same values
// does.
func TestServeResetStatsKeepsDigestStorage(t *testing.T) {
	eng, srv := oneStream(t, "direct", 0, 200*us, Deterministic{Rate: 1000})
	eng.RunFor(100 * time.Millisecond)
	lat := &srv.Stats(0).Latency
	if lat.N() == 0 {
		t.Fatal("no completions before ResetStats")
	}
	top := lat.Max()
	srv.ResetStats()
	lat = &srv.Stats(0).Latency
	if lat.N() != 0 || lat.Max() != 0 {
		t.Fatal("ResetStats left latency observations behind")
	}

	// Rising values: on a digest that lost its storage, each measured
	// Add past the warm-up would grow the bucket slice.
	vals := []time.Duration{0, 3 * us, top / 7, top / 2, top}
	var fresh metrics.Digest
	for _, v := range vals {
		fresh.Add(v)
	}
	// AllocsPerRun makes one warm-up call before the measured ones, so
	// every value is added exactly once.
	i := 0
	if allocs := testing.AllocsPerRun(len(vals)-1, func() {
		lat.Add(vals[i])
		i++
	}); allocs != 0 {
		t.Fatalf("Add after ResetStats allocated %.1f times per call, want 0", allocs)
	}
	if lat.N() != fresh.N() || lat.Min() != fresh.Min() || lat.Max() != fresh.Max() {
		t.Fatalf("reset digest N/min/max = %d/%v/%v, fresh %d/%v/%v",
			lat.N(), lat.Min(), lat.Max(), fresh.N(), fresh.Min(), fresh.Max())
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if got, want := lat.Quantile(q), fresh.Quantile(q); got != want {
			t.Fatalf("q%v: reset digest %v, fresh digest %v", q, got, want)
		}
	}
}

// TestStickyPlacementServesFromWarmDevice: with sticky placement and
// light load, a tenant's requests stay on one device and pay no cold
// reconstruction; round-robin pays it nearly every request.
func TestStickyPlacementServesFromWarmDevice(t *testing.T) {
	build := func(policy string) *StreamStats {
		eng := sim.NewEngine()
		pol, err := fleet.NewPolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(eng, Config{
			Fleet:      fleet.Config{Devices: 2, Policy: pol, Sched: "direct", RunLimit: time.Second, Seed: 1},
			AdmitDepth: 0,
			Streams: []Stream{
				{Tenant: workload.OpenLoopTenant("warm", 200*us, 400*us), Arrival: Deterministic{Rate: 1000}},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.RunFor(200 * time.Millisecond)
		return srv.Stats(0)
	}
	sticky := build("sticky")
	rr := build("rr")
	if sticky.ColdTime > 0 {
		t.Fatalf("sticky placement paid %v cold time at light load", sticky.ColdTime)
	}
	if rr.ColdTime == 0 {
		t.Fatal("round-robin paid no cold time; the working-set model is not wired")
	}
	if sticky.Latency.Quantile(0.5) >= rr.Latency.Quantile(0.5) {
		t.Fatalf("sticky p50 %v not better than round-robin p50 %v",
			sticky.Latency.Quantile(0.5), rr.Latency.Quantile(0.5))
	}
}
