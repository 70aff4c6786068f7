package neon

import (
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// faultStep names a point inside the fault machine at which a test
// kills the faulting caller.
type faultStep string

const (
	stepTrap faultStep = "trap" // FaultTrap in flight
	stepScan faultStep = "scan" // FaultScan in flight
	stepHold faultStep = "wait" // held by the scheduler
)

var faultSteps = []faultStep{stepTrap, stepScan, stepHold}

// killAt is when a store issued at 0 is inside the step: half way
// through the trap or the scan, or 1 µs into the scheduler's hold.
func killAt(k *Kernel, step faultStep) sim.Duration {
	c := k.Costs()
	switch step {
	case stepTrap:
		return c.FaultTrap / 2
	case stepScan:
		return c.FaultTrap + c.FaultScan/2
	default:
		return c.FaultTrap + c.FaultScan + time.Microsecond
	}
}

// faultCounts are the fault counters a kill leaves: the page's, the
// channel's, and the kernel's.
type faultCounts struct{ page, channel, kernel int64 }

// wantCounts is what the process-driven fault path left when its
// process was killed in the step: the trap is counted on the page as
// the store is issued, the kernel's counters once the trap has elapsed
// and the handler runs.
func wantCounts(step faultStep) faultCounts {
	if step == stepTrap {
		return faultCounts{page: 1}
	}
	return faultCounts{page: 1, channel: 1, kernel: 1}
}

// faultRig is an engaged channel whose task the scheduler holds, with
// one request staged on it; the test issues its faulting store at
// time 0 of the rig's clock.
type faultRig struct {
	e     *sim.Engine
	k     *Kernel
	sched *recordingSched
	task  *Task
	cs    *ChannelState
	r     *gpu.Request
	t0    sim.Time
}

func newFaultRig(t *testing.T) *faultRig {
	t.Helper()
	sched := &recordingSched{engageAll: true, blockers: map[*Task]bool{}}
	e, _, k := testKernel(t, sched)
	task, cs := openChannel(t, e, k)
	sched.blockers[task] = true
	return &faultRig{e: e, k: k, sched: sched, task: task, cs: cs,
		r: cs.Ch.Stage(10*time.Microsecond, gpu.Compute), t0: e.Now()}
}

func (r *faultRig) counts() faultCounts {
	return faultCounts{page: r.cs.Ch.Reg.Faults, channel: r.cs.Faults, kernel: r.k.TotalFaults}
}

// release lets the held task run and runs the engine on.
func (r *faultRig) release() {
	r.sched.blockers[r.task] = false
	r.task.Gate().Broadcast()
	r.e.RunFor(time.Millisecond)
}

// TestFaultMachineTimeline: an engaged store costs the trap plus the
// scan, is held while the scheduler says no, and reaches the device at
// the broadcast that lets its task run — for an engine caller and for
// a blocking one, which is resumed once, in that event.
func TestFaultMachineTimeline(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		r := newFaultRig(t)
		var doneAt sim.Time
		var acts uint64
		if blocking {
			r.task.Go("store", func(p *sim.Proc) {
				a0 := r.e.Activations()
				r.cs.Ch.Reg.Store(p, r.r.Ref)
				doneAt, acts = p.Now(), r.e.Activations()-a0
			})
		} else {
			r.e.After(0, func() {
				if r.cs.Ch.Reg.StoreFaultingAsync(r.e, r.r.Ref, func() { doneAt = r.e.Now() }) {
					t.Error("a held fault finished inside StoreFaultingAsync")
				}
			})
		}
		r.e.RunFor(time.Millisecond)
		if doneAt != 0 || r.cs.Ch.LastSubmittedRef >= r.r.Ref {
			t.Fatalf("blocking=%v: the held store went through", blocking)
		}
		releaseAt := r.e.Now()
		r.release()
		if doneAt != releaseAt || r.cs.Ch.LastSubmittedRef != r.r.Ref {
			t.Fatalf("blocking=%v: store done at %v (delivered ref %d), want %v (ref %d)",
				blocking, doneAt, r.cs.Ch.LastSubmittedRef, releaseAt, r.r.Ref)
		}
		if blocking && acts != 1 {
			t.Errorf("blocking caller activated %d times during its fault, want 1 (the resume)", acts)
		}
		if got := r.counts(); got != wantCounts(stepHold) {
			t.Errorf("blocking=%v: counters %+v, want %+v", blocking, got, wantCounts(stepHold))
		}
	}
}

// TestFaultKilledAtEachStepEngine kills the task while an engine
// caller's fault is in each step. The caller is no process, so the
// fault runs on as the process-driven path did for a caller that is
// not a task thread: the kernel lets a dead task's fault go, the store
// reaches the (dead) channel, and the continuation runs exactly once —
// at the trap's end if the handler found the channel gone, at the
// scan's end, or at the kill itself for a held fault.
func TestFaultKilledAtEachStepEngine(t *testing.T) {
	for _, step := range faultSteps {
		r := newFaultRig(t)
		calls := 0
		var doneAt sim.Time
		r.e.After(0, func() {
			r.cs.Ch.Reg.StoreFaultingAsync(r.e, r.r.Ref, func() { calls++; doneAt = r.e.Now() })
		})
		kill := r.t0.Add(killAt(r.k, step))
		r.e.RunUntil(kill)
		r.k.KillTask(r.task, "test")
		r.e.RunFor(time.Millisecond)
		want := kill
		switch step {
		case stepTrap:
			want = r.t0.Add(r.k.Costs().FaultTrap)
		case stepScan:
			want = r.t0.Add(r.k.Costs().InterceptCost())
		}
		if calls != 1 || doneAt != want {
			t.Errorf("%s: continuation ran %d times, at %v; want once, at %v", step, calls, doneAt, want)
		}
		if got := r.counts(); got != wantCounts(step) {
			t.Errorf("%s: counters %+v, want %+v", step, got, wantCounts(step))
		}
	}
}

// TestFaultKilledAtEachStepBlocking kills a blocking caller — a task
// thread — while its fault is in each step, once by killing the task
// and once by killing the thread alone (the task and its channel live
// on, so a delivery would show). Either way the caller unwinds without
// returning from the store, the store is never delivered, not even
// after the task is let run, and the counters are those the process
// that slept through the fault path left.
func TestFaultKilledAtEachStepBlocking(t *testing.T) {
	for _, wholeTask := range []bool{true, false} {
		for _, step := range faultSteps {
			r := newFaultRig(t)
			returned := false
			p := r.task.Go("store", func(p *sim.Proc) {
				r.cs.Ch.Reg.Store(p, r.r.Ref)
				returned = true
			})
			r.e.RunUntil(r.t0.Add(killAt(r.k, step)))
			if wholeTask {
				r.k.KillTask(r.task, "test")
			} else {
				p.Kill()
			}
			r.e.RunFor(time.Millisecond)
			if !wholeTask {
				r.release()
			}
			name := string(step)
			if !wholeTask {
				name += "/thread"
			}
			if returned || !p.Finished() {
				t.Errorf("%s: returned=%v finished=%v, want an unwound caller", name, returned, p.Finished())
			}
			if r.cs.Ch.LastSubmittedRef >= r.r.Ref || r.r.Submitted != 0 {
				t.Errorf("%s: the killed caller's store was delivered", name)
			}
			if got := r.counts(); got != wantCounts(step) {
				t.Errorf("%s: counters %+v, want %+v", name, got, wantCounts(step))
			}
		}
	}
}

// TestFaultFinishesInlineWhenFree: a fault whose steps cost nothing and
// whose task may run is delivered inside StoreFaultingAsync, which
// reports it and never calls the continuation.
func TestFaultFinishesInlineWhenFree(t *testing.T) {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.Costs.FaultTrap, cfg.Costs.FaultScan = 0, 0
	k := NewKernel(gpu.New(e, cfg), &recordingSched{engageAll: true})
	_, cs := openChannel(t, e, k)
	r := cs.Ch.Stage(10*time.Microsecond, gpu.Compute)
	now := false
	e.After(0, func() {
		now = cs.Ch.Reg.StoreFaultingAsync(e, r.Ref, func() { t.Error("continuation called for an inline fault") })
	})
	e.RunFor(time.Millisecond)
	if !now || cs.Ch.LastSubmittedRef != r.Ref || k.TotalFaults != 1 {
		t.Fatalf("now=%v delivered=%d faults=%d, want an inline delivered fault", now, cs.Ch.LastSubmittedRef, k.TotalFaults)
	}
}

// TestEngagedFaultAllocatesNothing: once the kernel's record pool holds
// a record, an engaged fault — trap, scan, scheduler check, delivery —
// allocates nothing, from an engine caller or from a blocking one (a
// thread that stores each time the test signals it).
func TestEngagedFaultAllocatesNothing(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		e, _, k := testKernel(t, &recordingSched{engageAll: true})
		task, cs := openChannel(t, e, k)
		var r *gpu.Request
		done := func() {}
		next := e.NewGate("next")
		if blocking {
			task.Go("store", func(p *sim.Proc) {
				for {
					p.Wait(next)
					cs.Ch.Reg.Store(p, r.Ref)
				}
			})
			e.RunFor(time.Microsecond) // park the thread on next
		}
		store := func() {
			r = cs.Ch.Stage(time.Microsecond, gpu.Compute)
			if blocking {
				next.Signal()
			} else {
				cs.Ch.Reg.StoreFaultingAsync(e, r.Ref, done)
			}
			e.RunFor(time.Millisecond)
			if !r.IsDone() {
				t.Fatal("faulting store not served")
			}
			r.Release()
		}
		store() // grow the pool, the ring and the event slab
		if got := testing.AllocsPerRun(100, store); got != 0 {
			t.Errorf("blocking=%v: %.1f allocs per fault, want 0", blocking, got)
		}
	}
}
