package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// harness bundles a stack with helpers for scheduler tests.
type harness struct {
	t   *testing.T
	eng *sim.Engine
	dev *gpu.Device
	k   *neon.Kernel
}

func newHarness(t *testing.T, sched neon.Scheduler) *harness {
	t.Helper()
	eng := sim.NewEngine()
	dev := gpu.New(eng, gpu.DefaultConfig())
	k := neon.NewKernel(dev, sched)
	return &harness{t: t, eng: eng, dev: dev, k: k}
}

// worker is a saturating blocking-request task.
type worker struct {
	task   *neon.Task
	client *userlib.Client
	done   int64
}

// startWorker launches a task issuing back-to-back blocking requests of
// the given size.
func (h *harness) startWorker(name string, size sim.Duration) *worker {
	w := &worker{}
	w.task = h.k.NewTask(name)
	w.task.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, h.k, w.task, name, gpu.Compute)
		if err != nil {
			return
		}
		w.client = client
		for w.task.Alive {
			submitSync(p, client, size)
			w.done++
		}
	})
	return w
}

// startIntermittent launches a task that sleeps off between requests.
func (h *harness) startIntermittent(name string, size, off sim.Duration) *worker {
	w := &worker{}
	w.task = h.k.NewTask(name)
	w.task.Go("main", func(p *sim.Proc) {
		client, err := userlib.Open(p, h.k, w.task, name, gpu.Compute)
		if err != nil {
			return
		}
		w.client = client
		for w.task.Alive {
			submitSync(p, client, size)
			w.done++
			p.Sleep(off)
		}
	})
	return w
}

// submitSync submits one compute request from process p and parks p
// until it completes: an OpenCL-style blocking round trip.
func submitSync(p *sim.Proc, c *userlib.Client, size sim.Duration) {
	if r, _, err := c.Submit(gpu.Compute, size, nil, nil); err == nil {
		p.Wait(r.DoneGate())
	}
}

func busyShare(a, b *neon.Task) (float64, float64) {
	ab, bb := float64(a.BusyTime()), float64(b.BusyTime())
	tot := ab + bb
	if tot == 0 {
		return 0, 0
	}
	return ab / tot, bb / tot
}

// --- DirectAccess ---

func TestDirectAccessNeverFaults(t *testing.T) {
	h := newHarness(t, NewDirectAccess())
	w := h.startWorker("w", 20*time.Microsecond)
	h.eng.RunFor(50 * time.Millisecond)
	if h.k.TotalFaults != 0 {
		t.Fatalf("direct access took %d faults", h.k.TotalFaults)
	}
	if w.done == 0 {
		t.Fatal("no work completed")
	}
}

func TestDirectAccessFavorsLargeRequests(t *testing.T) {
	h := newHarness(t, NewDirectAccess())
	small := h.startWorker("small", 20*time.Microsecond)
	big := h.startWorker("big", 800*time.Microsecond)
	h.eng.RunFor(200 * time.Millisecond)
	ss, bs := busyShare(small.task, big.task)
	if bs < 0.9 {
		t.Fatalf("big-request task got %.2f share; round-robin should hand it ~0.97", bs)
	}
	if ss > 0.1 {
		t.Fatalf("small-request task got %.2f share under direct access", ss)
	}
}

// --- Timeslice (engaged and disengaged) ---

func TestTimesliceFairSharing(t *testing.T) {
	for _, disengaged := range []bool{false, true} {
		sched := NewTimeslice(DefaultSlice)
		if disengaged {
			sched = NewDisengagedTimeslice(DefaultSlice)
		}
		h := newHarness(t, sched)
		small := h.startWorker("small", 20*time.Microsecond)
		big := h.startWorker("big", 800*time.Microsecond)
		h.eng.RunFor(time.Second)
		ss, bs := busyShare(small.task, big.task)
		// Slice *time* is split evenly. Under the engaged variant the
		// small-request task burns part of its slices on per-request
		// interception (the paper's Figure 6 observation that Throttle
		// "tends to suffer more"), so its device-busy share dips below
		// one half; the disengaged variant removes that skew.
		lo := 0.42
		if !disengaged {
			lo = 0.33
		}
		if ss < lo || ss > 0.60 {
			t.Errorf("%s: small share = %.2f, want in [%.2f, 0.60]", sched.Name(), ss, lo)
		}
		if bs < 0.40 || bs > 1-lo {
			t.Errorf("%s: big share = %.2f", sched.Name(), bs)
		}
	}
}

func TestTimesliceOnlyHolderRuns(t *testing.T) {
	sched := NewTimeslice(10 * time.Millisecond)
	h := newHarness(t, sched)
	a := h.startWorker("a", 50*time.Microsecond)
	b := h.startWorker("b", 50*time.Microsecond)
	// Sample mid-slice several times: only the holder's channel should
	// ever have in-flight work.
	violations := 0
	for i := 1; i <= 8; i++ {
		h.eng.After(sim.Duration(i)*12*time.Millisecond, func() {
			holder := sched.Holder()
			if holder == nil {
				return
			}
			var other *neon.Task
			if holder == a.task {
				other = b.task
			} else {
				other = a.task
			}
			if other.PendingRequests() > 0 {
				violations++
			}
		})
	}
	h.eng.RunFor(120 * time.Millisecond)
	if violations != 0 {
		t.Fatalf("%d mid-slice submissions from non-holders", violations)
	}
}

func TestEngagedTimesliceInterceptsEverything(t *testing.T) {
	sched := NewTimeslice(DefaultSlice)
	h := newHarness(t, sched)
	w := h.startWorker("w", 100*time.Microsecond)
	h.eng.RunFor(100 * time.Millisecond)
	if h.k.TotalFaults < w.done {
		t.Fatalf("faults=%d < completions=%d; engaged TS must intercept every request",
			h.k.TotalFaults, w.done)
	}
}

func TestDisengagedTimesliceAvoidsPerRequestFaults(t *testing.T) {
	sched := NewDisengagedTimeslice(DefaultSlice)
	h := newHarness(t, sched)
	w := h.startWorker("w", 100*time.Microsecond)
	h.eng.RunFor(300 * time.Millisecond)
	if w.done < 1000 {
		t.Fatalf("only %d rounds", w.done)
	}
	// A standalone holder faults only at slice boundaries (its first
	// submission after each re-engagement), not per request.
	slices := int64(300*time.Millisecond/DefaultSlice) + 2
	if h.k.TotalFaults > slices {
		t.Fatalf("disengaged TS took %d faults for %d requests (want <= ~1 per slice)",
			h.k.TotalFaults, w.done)
	}
}

func TestTimesliceOveruseSkipsTurns(t *testing.T) {
	slice := 10 * time.Millisecond
	sched := NewDisengagedTimeslice(slice)
	h := newHarness(t, sched)
	// Overuser: requests 2.5x the slice; each slice accrues ~1.5 slices
	// of overuse.
	over := h.startWorker("over", 25*time.Millisecond)
	good := h.startWorker("good", 100*time.Microsecond)
	h.eng.RunFor(time.Second)
	if sched.TurnsSkipped == 0 {
		t.Fatal("overuser never skipped a turn")
	}
	os, gs := busyShare(over.task, good.task)
	if os > 0.65 {
		t.Fatalf("overuser share = %.2f despite overuse control", os)
	}
	if gs < 0.35 {
		t.Fatalf("good task share = %.2f", gs)
	}
}

func TestTimesliceNotWorkConserving(t *testing.T) {
	sched := NewDisengagedTimeslice(DefaultSlice)
	h := newHarness(t, sched)
	// One saturating task, one mostly idle task.
	busy := h.startWorker("busy", 100*time.Microsecond)
	idle := h.startIntermittent("idle", 100*time.Microsecond, 5*time.Millisecond)
	start := 100 * time.Millisecond
	h.eng.RunFor(start)
	busyBefore := h.dev.TotalBusy()
	h.eng.RunFor(600 * time.Millisecond)
	util := float64(h.dev.TotalBusy()-busyBefore) / float64(600*time.Millisecond)
	// The idle task's slices are mostly wasted: utilization well below 1.
	if util > 0.75 {
		t.Fatalf("utilization %.2f; timeslice should waste the idle task's slices", util)
	}
	_ = busy
	_ = idle
}

func TestTimesliceRotationSurvivesExit(t *testing.T) {
	sched := NewDisengagedTimeslice(5 * time.Millisecond)
	h := newHarness(t, sched)
	a := h.startWorker("a", 50*time.Microsecond)
	b := h.startWorker("b", 50*time.Microsecond)
	h.eng.RunFor(30 * time.Millisecond)
	h.k.KillTask(a.task, "test")
	doneAtKill := b.done
	h.eng.RunFor(100 * time.Millisecond)
	if b.done <= doneAtKill {
		t.Fatal("survivor made no progress after co-runner exit")
	}
	if sched.Holder() == a.task {
		t.Fatal("dead task still holds the token")
	}
}

// --- Disengaged Fair Queueing ---

func TestDFQFairSharing(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	small := h.startWorker("small", 20*time.Microsecond)
	big := h.startWorker("big", 800*time.Microsecond)
	h.eng.RunFor(time.Second)
	ss, bs := busyShare(small.task, big.task)
	if ss < 0.35 || bs > 0.65 {
		t.Fatalf("shares small=%.2f big=%.2f, want roughly even", ss, bs)
	}
	if sched.Cycles == 0 {
		t.Fatal("no engagement cycles ran")
	}
}

func TestDFQMostRequestsUninstrumented(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	w := h.startWorker("w", 30*time.Microsecond)
	h.eng.RunFor(time.Second)
	frac := float64(h.k.TotalFaults) / float64(w.done)
	if frac > 0.25 {
		t.Fatalf("%.0f%% of requests intercepted; disengagement should keep this small", 100*frac)
	}
}

func TestDFQVirtualTimeInvariants(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	a := h.startWorker("a", 50*time.Microsecond)
	b := h.startWorker("b", 400*time.Microsecond)
	// Sample invariants periodically.
	for i := 1; i <= 20; i++ {
		h.eng.After(sim.Duration(i)*25*time.Millisecond, func() {
			sys := sched.SystemVirtualTime()
			for _, task := range []*neon.Task{a.task, b.task} {
				if sched.VirtualTime(task) < sys-Work(time.Nanosecond) {
					// Active tasks may lag sys only transiently within a
					// maintenance step; never persistently by design.
					t.Errorf("task vt %v below system vt %v", sched.VirtualTime(task), sys)
				}
			}
		})
	}
	h.eng.RunFor(600 * time.Millisecond)
}

func TestDFQDeniesRunahead(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	h.startWorker("small", 20*time.Microsecond)
	h.startWorker("big", 1700*time.Microsecond)
	h.eng.RunFor(time.Second)
	if sched.Denials == 0 {
		t.Fatal("mismatched pair never triggered a denial")
	}
}

func TestDFQNoDenialsWhenBalanced(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	h.startWorker("a", 100*time.Microsecond)
	h.startWorker("b", 100*time.Microsecond)
	h.eng.RunFor(time.Second)
	if sched.Denials > 2 {
		t.Fatalf("%d denials for identical tasks", sched.Denials)
	}
}

func TestDFQWorkConservingWithIdleCorunner(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	busy := h.startWorker("busy", 100*time.Microsecond)
	h.startIntermittent("idle", 100*time.Microsecond, 4*time.Millisecond)
	h.eng.RunFor(100 * time.Millisecond)
	busyBefore := busy.done
	h.eng.RunFor(600 * time.Millisecond)
	rate := float64(busy.done-busyBefore) / 600e6 // per ns
	// Alone, one 100us blocking request completes every ~112us
	// (size + submit + occasional cycle overhead) => rate ~8.9e-3/us.
	// With a mostly idle co-runner under a work-conserving scheduler the
	// busy task should keep most of that.
	aloneRate := 1.0 / float64(112*time.Microsecond/time.Nanosecond)
	if rate < 0.6*aloneRate {
		t.Fatalf("busy task rate %.3g vs alone %.3g; DFQ should reclaim idle time", rate, aloneRate)
	}
}

func TestDFQEstimatesRequestSizes(t *testing.T) {
	sched := NewDisengagedFairQueueing(DefaultDFQConfig())
	h := newHarness(t, sched)
	w := h.startWorker("w", 300*time.Microsecond)
	h.eng.RunFor(300 * time.Millisecond)
	est := sched.Estimate(w.task)
	if est < 290*time.Microsecond || est > 310*time.Microsecond {
		t.Fatalf("estimate = %v, want ~300us", est)
	}
}

func TestDFQEstimateLowerBoundForHugeRequests(t *testing.T) {
	cfg := DefaultDFQConfig()
	sched := NewDisengagedFairQueueing(cfg)
	h := newHarness(t, sched)
	w := h.startWorker("w", 20*time.Millisecond) // far beyond the window
	h.eng.RunFor(400 * time.Millisecond)
	if est := sched.Estimate(w.task); est < cfg.SamplePeriod {
		t.Fatalf("estimate %v below sampling window; lower bound not applied", est)
	}
}

func TestDFQConfigDefaultsFilled(t *testing.T) {
	sched := NewDisengagedFairQueueing(DFQConfig{})
	def := DefaultDFQConfig()
	if sched.Config() != def {
		t.Fatalf("zero config not defaulted: %+v", sched.Config())
	}
}

// --- Oracle Fair Queueing ---

func TestOracleFairSharing(t *testing.T) {
	sched := NewOracleFairQueueing(DefaultOracleInterval)
	h := newHarness(t, sched)
	small := h.startWorker("small", 20*time.Microsecond)
	big := h.startWorker("big", 800*time.Microsecond)
	h.eng.RunFor(time.Second)
	ss, bs := busyShare(small.task, big.task)
	if ss < 0.40 || ss > 0.60 {
		t.Fatalf("shares small=%.2f big=%.2f; true statistics should equalize", ss, bs)
	}
	if sched.Intervals == 0 {
		t.Fatal("oracle never ran an interval")
	}
}

func TestOracleZeroOverheadStandalone(t *testing.T) {
	sched := NewOracleFairQueueing(DefaultOracleInterval)
	h := newHarness(t, sched)
	w := h.startWorker("w", 50*time.Microsecond)
	h.eng.RunFor(500 * time.Millisecond)
	if h.k.TotalFaults != 0 {
		t.Fatalf("oracle faulted %d times on a standalone task", h.k.TotalFaults)
	}
	if w.done == 0 {
		t.Fatal("no progress")
	}
}

// --- construction helpers ---

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		if s, err := New(name); err != nil || s == nil {
			t.Fatalf("New(%q) = %v, %v", name, s, err)
		}
	}
	s, err := New("bogus")
	if err == nil || s != nil {
		t.Fatalf("New(bogus) = %v, %v; want nil scheduler and an error", s, err)
	}
	for _, want := range Names() {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("New(bogus) error %q does not name valid policy %q", err, want)
		}
	}
	for _, alias := range []string{"ts", "disengaged-timeslice", "oracle-fq"} {
		if s, err := New(alias); err != nil || s == nil {
			t.Fatalf("alias %q broken: %v, %v", alias, s, err)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	cases := map[string]neon.Scheduler{
		"direct":                   NewDirectAccess(),
		"timeslice":                NewTimeslice(DefaultSlice),
		"disengaged-timeslice":     NewDisengagedTimeslice(DefaultSlice),
		"disengaged-fair-queueing": NewDisengagedFairQueueing(DefaultDFQConfig()),
		"oracle-fair-queueing":     NewOracleFairQueueing(0),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Fatalf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

// PerWeight is the weighted-charge conversion every ledger applies:
// identity at the default weight (so unweighted configurations stay
// bit-identical), charge/weight otherwise.
func TestPerWeight(t *testing.T) {
	if got := PerWeight(Work(1000), 1); got != 1000 {
		t.Errorf("weight 1 must be the identity, got %v", got)
	}
	if got := PerWeight(Work(1000), 0); got != 1000 {
		t.Errorf("unset weight must be the identity, got %v", got)
	}
	if got := PerWeight(Work(1000), -3); got != 1000 {
		t.Errorf("negative weight must be the identity, got %v", got)
	}
	if got := PerWeight(Work(1000), 4); got != 250 {
		t.Errorf("PerWeight(1000, 4) = %v, want 250", got)
	}
	if got := PerWeight(Work(1000), 0.5); got != 2000 {
		t.Errorf("PerWeight(1000, 0.5) = %v, want 2000", got)
	}
}
