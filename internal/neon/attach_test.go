package neon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// attachStep names a point inside the attach machine at which a test
// kills the attaching task.
type attachStep string

const (
	stepQueued  attachStep = "queued"  // in the FIFO attach queue
	stepGranted attachStep = "granted" // granted a slot, wake not yet run
	stepCtx     attachStep = "ctx"     // context syscall in flight
	stepChan    attachStep = "chan"    // second channel syscall in flight
	stepSwitch  attachStep = "switch"  // reattach's context switch in flight
)

// stepUntil runs events one at a time until cond holds.
func stepUntil(t *testing.T, e *sim.Engine, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if !e.Step() {
			t.Fatalf("engine drained before %s", what)
		}
	}
}

// attachKillRig is a one-context device with a holder pinning the
// slot, victim A whose acquire is the one under test, and bystander B
// queued behind A.
type attachKillRig struct {
	e            *sim.Engine
	k            *Kernel
	holder, a, b *Task
	hvc, avc     *VContext
	bvc          *VContext
	bGot         bool
}

func newAttachKillRig(t *testing.T, step attachStep) *attachKillRig {
	t.Helper()
	e, _, k := muxKernel(t, 1)
	r := &attachKillRig{e: e, k: k}
	r.holder, r.a, r.b = k.NewTask("holder"), k.NewTask("a"), k.NewTask("b")
	e.Spawn("setup", func(p *sim.Proc) {
		var err error
		if step == stepSwitch {
			// A attaches first, so its acquire under test is a reattach.
			if r.avc, err = k.OpenVirtual(p, r.a, "a", gpu.Compute, gpu.DMA); err != nil {
				t.Errorf("open a: %v", err)
			}
		}
		if r.hvc, err = k.OpenVirtual(p, r.holder, "h", gpu.Compute); err != nil {
			t.Errorf("open holder: %v", err)
		}
		if _, err = r.hvc.Acquire(p, gpu.Compute); err != nil {
			t.Errorf("acquire holder: %v", err)
		}
		if r.avc == nil {
			r.avc, err = k.OpenVirtual(p, r.a, "a", gpu.Compute, gpu.DMA)
		}
		if err == nil {
			r.bvc, err = k.OpenVirtual(p, r.b, "b", gpu.Compute)
		}
		if err != nil {
			t.Errorf("open: %v", err)
		}
	})
	e.Run()
	if r.hvc == nil || r.avc == nil || r.bvc == nil || r.avc.Attached() || !r.hvc.Attached() {
		t.Fatal("rig: the holder must hold the only slot with A and B detached")
	}
	return r
}

// queueB queues B's acquire behind A's: B reports success through bGot.
func (r *attachKillRig) queueB(t *testing.T) {
	_, now, _ := r.bvc.AcquireAsync(gpu.Compute, func(ch *gpu.Channel, err error) {
		if err != nil || ch == nil {
			t.Errorf("bystander acquire: %v", err)
			return
		}
		r.bGot = true
		r.bvc.Release()
	})
	if now {
		t.Fatal("bystander acquire finished at once; it must queue behind A")
	}
}

// driveToStep advances the rig, with A's acquire started and B queued,
// until A's attach sits at step, and kills A there.
func (r *attachKillRig) driveToStep(t *testing.T, step attachStep) {
	t.Helper()
	m := r.k.mux
	stepUntil(t, r.e, "A queues", func() bool { return r.avc.wait.waiting })
	r.queueB(t)
	switch step {
	case stepQueued:
		r.k.KillTask(r.a, "test")
		r.hvc.Release()
	case stepGranted:
		// The holder's release grants A the slot; the kill lands in the
		// same event, before A's wake consumes the grant.
		r.hvc.Release()
		if !r.avc.wait.granted || m.reserved != 1 {
			t.Fatalf("release did not grant A: granted=%v reserved=%d", r.avc.wait.granted, m.reserved)
		}
		r.k.KillTask(r.a, "test")
	default:
		r.hvc.Release()
		stepUntil(t, r.e, string(step), func() bool {
			switch step {
			case stepCtx:
				return len(m.sysQ) == 1 && r.avc.newCtx == nil
			case stepChan:
				return len(m.sysQ) == 1 && len(r.avc.newChans) == 1
			default:
				return len(m.switchQ) == 1
			}
		})
		r.k.KillTask(r.a, "test")
	}
}

// checkClean asserts the mux came out of the kill whole: nothing
// reserved or queued, A not attaching, and B — queued behind A — served.
func (r *attachKillRig) checkClean(t *testing.T) {
	t.Helper()
	r.e.Run()
	m := r.k.mux
	if r.avc.attaching {
		t.Error("killed context still marked attaching")
	}
	if m.reserved != 0 || len(m.waiters) != 0 || len(m.sysQ) != 0 || len(m.switchQ) != 0 {
		t.Errorf("mux not clean: reserved=%d waiters=%d sysQ=%d switchQ=%d",
			m.reserved, len(m.waiters), len(m.sysQ), len(m.switchQ))
	}
	if !r.bGot {
		t.Error("the waiter queued behind the killed attach was never served")
	}
	if n := r.k.dev.ContextCount(); n > 1 {
		t.Errorf("device holds %d contexts, cap 1", n)
	}
}

var attachSteps = []attachStep{stepQueued, stepGranted, stepCtx, stepChan, stepSwitch}

// TestAttachKilledAtEachStepAsync kills the attaching task at every
// step of the attach machine and checks the engine-context acquirer
// gets ErrContextDead exactly once, the machine's bookkeeping
// (reserved slots, attaching, the step queues) is restored, and the
// next waiter is pumped.
func TestAttachKilledAtEachStepAsync(t *testing.T) {
	for _, step := range attachSteps {
		t.Run(string(step), func(t *testing.T) {
			r := newAttachKillRig(t, step)
			calls := 0
			var got error
			_, now, _ := r.avc.AcquireAsync(gpu.Compute, func(ch *gpu.Channel, err error) {
				calls++
				got = err
				if ch != nil {
					t.Error("dead acquire returned a channel")
				}
			})
			if now {
				t.Fatal("acquire of a detached context on a full pool finished at once")
			}
			r.driveToStep(t, step)
			r.checkClean(t)
			if calls != 1 || got != gpu.ErrContextDead {
				t.Fatalf("acquirer called %d times with %v, want once with ErrContextDead", calls, got)
			}
		})
	}
}

// TestAttachKilledAtEachStepBlocking is the same kill matrix through
// the blocking wrapper. A caller that is not one of the task's threads
// is resumed with ErrContextDead; a caller that is (Task.Go) is killed
// with its task while parked and unwinds — the machine finishing later
// must not try to resume it (no Resume or Handoff panic).
func TestAttachKilledAtEachStepBlocking(t *testing.T) {
	for _, step := range attachSteps {
		for _, own := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/taskThread=%v", step, own), func(t *testing.T) {
				r := newAttachKillRig(t, step)
				var got error
				returned := false
				body := func(p *sim.Proc) {
					_, got = r.avc.Acquire(p, gpu.Compute)
					returned = true
				}
				var caller *sim.Proc
				if own {
					caller = r.a.Go("acquire", body)
				} else {
					caller = r.e.Spawn("acquire", body)
				}
				r.driveToStep(t, step)
				r.checkClean(t)
				if !caller.Finished() {
					t.Fatal("blocking caller never finished")
				}
				switch {
				case own && returned:
					t.Fatal("a killed task thread returned from Acquire instead of unwinding")
				case !own && (!returned || got != gpu.ErrContextDead):
					t.Fatalf("blocking caller returned=%v with %v, want ErrContextDead", returned, got)
				}
				if n := r.e.LiveProcs(); n != 0 {
					t.Fatalf("%d processes left live", n)
				}
			})
		}
	}
}

// TestAttachRollbackReleasesPartialContext: a channel syscall refused
// by the protection policy rolls the half-built attach back — the
// hardware context goes back to the pool, the task keeps no channel —
// the acquirer sees the policy error, and the freed slot goes to the
// attach queued behind it.
func TestAttachRollbackReleasesPartialContext(t *testing.T) {
	e, d, k := muxKernel(t, 1)
	k.Policy = &ChannelPolicy{MaxChannelsPerTask: 1, MaxTasks: 8}
	task := k.NewTask("greedy")
	var got error
	e.Spawn("open", func(p *sim.Proc) {
		_, got = k.OpenVirtual(p, task, "g", gpu.Compute, gpu.DMA)
	})
	stepUntil(t, e, "greedy holds the slot", func() bool {
		return len(task.vctxs) == 1 && task.vctxs[0].newCtx != nil
	})
	waiter := k.NewTask("waiter")
	served := false
	e.Spawn("waiter", func(p *sim.Proc) {
		vc, err := k.OpenVirtual(p, waiter, "w", gpu.Compute)
		if err == nil {
			_, err = vc.Acquire(p, gpu.Compute)
		}
		served = err == nil
	})
	e.Run()
	if got != ErrChannelQuota {
		t.Fatalf("open returned %v, want ErrChannelQuota", got)
	}
	if st := k.MuxStatus(); !served || st.AttachWaits != 1 {
		t.Fatalf("queued attach served=%v after %d waits, want served after 1", served, st.AttachWaits)
	}
	if n := d.ContextCount(); n != 1 {
		t.Fatalf("device holds %d hardware contexts, want only the waiter's", n)
	}
	if len(task.Channels()) != 0 || len(task.Contexts()) != 0 {
		t.Fatalf("task kept %d channels and %d contexts", len(task.Channels()), len(task.Contexts()))
	}
	if vc := task.vctxs[0]; vc.attaching || vc.newCtx != nil {
		t.Fatal("rolled-back attach left machine state behind")
	}
}

// TestAcquireAsyncJoinsInflightAttach: a second acquirer of a context
// whose attach is in flight waits for it rather than starting its own,
// and both end pinned on the same hardware context.
func TestAcquireAsyncJoinsInflightAttach(t *testing.T) {
	e, _, k := muxKernel(t, 1)
	task := k.NewTask("t")
	var vc *VContext
	e.Spawn("open", func(p *sim.Proc) {
		var err error
		if vc, err = k.OpenVirtual(p, task, "v", gpu.Compute); err == nil {
			// Evict it so the acquires below must reattach.
			k.muxDetach(vc)
		}
	})
	e.Run()
	var chs []*gpu.Channel
	done := func(ch *gpu.Channel, err error) {
		if err != nil {
			t.Errorf("acquire: %v", err)
		}
		chs = append(chs, ch)
	}
	for i := 0; i < 2; i++ {
		if _, now, _ := vc.AcquireAsync(gpu.Compute, done); now {
			t.Fatalf("acquire %d finished at once; it must wait for the reattach", i)
		}
	}
	e.Run()
	if len(chs) != 2 || chs[0] == nil || chs[0] != chs[1] {
		t.Fatalf("acquirers got %v, want the same channel twice", chs)
	}
	if st := k.MuxStatus(); st.Attaches != 2 || st.Reattaches != 1 {
		t.Fatalf("attaches=%d reattaches=%d, want 2 and 1 (one reattach shared)", st.Attaches, st.Reattaches)
	}
	if vc.pins != 2 {
		t.Fatalf("pins = %d, want 2", vc.pins)
	}
}

// TestAcquireReattachChargesSetupAndSwitch pins the attach machine's
// timeline: a blocking reattach returns exactly two setup syscalls and
// one context switch after it starts — what a process sleeping
// through each step paid — with one process activation in total.
func TestAcquireReattachChargesSetupAndSwitch(t *testing.T) {
	e, _, k := muxKernel(t, 1)
	task := k.NewTask("t")
	var took sim.Duration
	var acts uint64
	e.Spawn("client", func(p *sim.Proc) {
		vc, err := k.OpenVirtual(p, task, "v", gpu.Compute)
		if err != nil {
			t.Error(err)
			return
		}
		k.muxDetach(vc)
		start, a0 := p.Now(), e.Activations()
		if _, err := vc.Acquire(p, gpu.Compute); err != nil {
			t.Error(err)
			return
		}
		took, acts = p.Now().Sub(start), e.Activations()-a0
	})
	e.Run()
	c := k.Costs()
	if want := 2*(c.SyscallTrap+c.SyscallDriverWork) + c.ContextSwitch; took != want {
		t.Fatalf("reattach took %v, want %v", took, want)
	}
	if acts != 1 {
		t.Fatalf("reattach cost %d process activations, want 1 (the inline resume)", acts)
	}
}

// TestAcquireAsyncFinishesInlineWhenStepsAreFree: on a platform whose
// setup syscalls and context switch cost nothing, a reattach finishes
// before AcquireAsync returns — the acquirer gets its pinned channel
// back at once and fn is never called, as a process's zero sleeps
// would not yield.
func TestAcquireAsyncFinishesInlineWhenStepsAreFree(t *testing.T) {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.MaxContexts = 1
	cfg.Costs.SyscallTrap, cfg.Costs.SyscallDriverWork, cfg.Costs.ContextSwitch = 0, 0, 0
	k := NewKernel(gpu.New(e, cfg), &recordingSched{})
	task := k.NewTask("t")
	var vc *VContext
	e.Spawn("open", func(p *sim.Proc) {
		var err error
		if vc, err = k.OpenVirtual(p, task, "v", gpu.Compute, gpu.DMA); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	k.muxDetach(vc)
	ch, now, err := vc.AcquireAsync(gpu.DMA, func(*gpu.Channel, error) {
		t.Error("fn called for an acquire that finished inline")
	})
	e.Run()
	if !now || err != nil || ch == nil || ch.Kind != gpu.DMA {
		t.Fatalf("inline reattach returned ch=%v now=%v err=%v, want the DMA channel at once", ch, now, err)
	}
	if vc.attaching || vc.acqFn != nil || vc.pins != 1 {
		t.Fatalf("attaching=%v acqFn set=%v pins=%d after an inline reattach", vc.attaching, vc.acqFn != nil, vc.pins)
	}
	if st := k.MuxStatus(); st.Reattaches != 1 {
		t.Fatalf("reattaches = %d, want 1", st.Reattaches)
	}
}

// TestBlockingAcquireAllocatesNothing: once the kernel's pooled records
// exist, a blocking acquire of an attached context allocates nothing.
func TestBlockingAcquireAllocatesNothing(t *testing.T) {
	e, _, k := muxKernel(t, 4)
	task := k.NewTask("t")
	var allocs float64
	e.Spawn("client", func(p *sim.Proc) {
		vc, err := k.OpenVirtual(p, task, "v", gpu.Compute)
		if err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := vc.Acquire(p, gpu.Compute); err != nil {
				t.Error(err)
			}
			vc.Release()
		})
	})
	e.RunFor(time.Second)
	if allocs != 0 {
		t.Fatalf("blocking acquire allocates %.1f times per call, want 0", allocs)
	}
}

// TestBlockingReattachAllocatesOnlyTheRebuild: a blocking acquire that
// parks through a whole reattach (two setup syscalls and the context
// switch, then the inline resume) allocates exactly what the same
// reattach driven by AcquireAsync from engine context does — the new
// hardware context, channel and page. The park/resume wrapper adds
// nothing.
func TestBlockingReattachAllocatesOnlyTheRebuild(t *testing.T) {
	e, _, k := muxKernel(t, 4)
	task := k.NewTask("t")
	var vc *VContext
	var blocking float64
	e.Spawn("client", func(p *sim.Proc) {
		var err error
		if vc, err = k.OpenVirtual(p, task, "v", gpu.Compute); err != nil {
			t.Error(err)
			return
		}
		blocking = testing.AllocsPerRun(100, func() {
			k.muxDetach(vc)
			if _, err := vc.Acquire(p, gpu.Compute); err != nil {
				t.Error(err)
			}
			vc.Release()
		})
	})
	e.Run()
	done := func(_ *gpu.Channel, err error) {
		if err != nil {
			t.Error(err)
		}
		vc.Release()
	}
	async := testing.AllocsPerRun(100, func() {
		k.muxDetach(vc)
		if _, now, _ := vc.AcquireAsync(gpu.Compute, done); now {
			t.Fatal("reattach finished at once")
		}
		e.Run()
	})
	if st := k.MuxStatus(); st.Reattaches != 202 {
		t.Fatalf("reattaches = %d, want 202 (101 per loop, warm-up included)", st.Reattaches)
	}
	if async == 0 || blocking != async {
		t.Fatalf("a blocking reattach allocates %.1f times, the machine alone %.1f; want equal and nonzero", blocking, async)
	}
}
