package userlib

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// openRaw opens a one-compute-channel raw client and settles its setup,
// then absorbs the device's first context switch with one request, so
// later timings are the submission path's alone.
func openRaw(t *testing.T, e *sim.Engine, k *neon.Kernel) *Client {
	t.Helper()
	task := k.NewTask("t")
	var c *Client
	OpenAsync(k, task, "t", []gpu.Kind{gpu.Compute}, func(got *Client, err error) {
		if err != nil {
			t.Errorf("Open: %v", err)
		}
		if c = got; c != nil {
			c.Submit(gpu.Compute, time.Microsecond, nil, nil)
		}
	})
	e.RunFor(time.Millisecond)
	if c == nil {
		t.Fatal("Open never finished")
	}
	return c
}

// submitted records what Submit's continuations saw.
type submitted struct {
	stored, done         *gpu.Request
	storedAt, doneAt     sim.Time
	storedCalls, doneRan int
}

func (s *submitted) submit(t *testing.T, e *sim.Engine, c *Client, size sim.Duration) (*gpu.Request, bool) {
	t.Helper()
	r, now, err := c.Submit(gpu.Compute, size,
		func(r *gpu.Request) { s.done, s.doneAt = r, e.Now(); s.doneRan++ },
		func(r *gpu.Request) { s.stored, s.storedAt = r, e.Now(); s.storedCalls++ })
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return r, now
}

// TestSubmitAsyncZeroHandoff: on a direct-mapped register Submit takes
// the fast path from engine context — no process ever runs — its
// store returns a DirectWrite after staging, exactly when a blocking
// store's sleep would have delivered it, and the completion
// continuation fires once in engine context.
func TestSubmitAsyncZeroHandoff(t *testing.T) {
	e, k := stack(t)
	c := openRaw(t, e, k)
	if e.LiveProcs() != 0 {
		t.Fatalf("%d processes live after setup, want 0", e.LiveProcs())
	}
	var s submitted
	start, acts := e.Now(), e.Activations()
	r, now := s.submit(t, e, c, 40*time.Microsecond)
	if r == nil || now {
		t.Fatalf("Submit returned r=%v now=%v, want a staged request whose store returns later", r, now)
	}
	e.RunFor(time.Millisecond)
	if s.stored != r || s.storedCalls != 1 || s.storedAt != start.Add(k.Costs().DirectWrite) {
		t.Errorf("store returned %d times, last at %v with %v; want once, at %v, with the request",
			s.storedCalls, s.storedAt, s.stored, start.Add(k.Costs().DirectWrite))
	}
	want := start.Add(k.Costs().DirectWrite + 40*time.Microsecond)
	if s.done != r || s.doneRan != 1 || s.doneAt != want {
		t.Fatalf("completion ran %d times, at %v; want once, at %v (doorbell + execution)", s.doneRan, s.doneAt, want)
	}
	if got := e.Activations() - acts; got != 0 {
		t.Errorf("%d process activations on the fast path, want 0", got)
	}
}

// TestSubmitAsyncRefusesEngagedChannel: with the channel register
// engaged (non-present page), Submit's fast path refuses and the store
// takes the fault path as an engine continuation — the interposition
// engaged schedulers depend on: the page counts one fault and no
// direct write, and the store returns only after the fault trap and
// the kernel's buffer scan.
func TestSubmitAsyncRefusesEngagedChannel(t *testing.T) {
	e, k := stack(t)
	c := openRaw(t, e, k)
	reg := c.Channel(gpu.Compute).Reg
	reg.SetPresent(false)
	faults, writes := reg.Faults, reg.DirectWrites

	var s submitted
	start, acts := e.Now(), e.Activations()
	r, now := s.submit(t, e, c, 10*time.Microsecond)
	if r == nil || now {
		t.Fatalf("Submit returned r=%v now=%v, want a staged request still faulting", r, now)
	}
	if reg.Faults != faults+1 || reg.DirectWrites != writes {
		t.Errorf("faults %d, direct writes %d; want one fault and no direct write",
			reg.Faults-faults, reg.DirectWrites-writes)
	}
	e.RunFor(time.Millisecond)
	if want := start.Add(k.Costs().InterceptCost()); s.stored != r || s.storedAt != want {
		t.Errorf("faulting store returned at %v, want %v (trap + scan)", s.storedAt, want)
	}
	if s.done != r || s.doneAt.Sub(start) < k.Costs().FaultTrap+10*time.Microsecond {
		t.Errorf("completed %v after submission, want at least fault trap + execution", s.doneAt.Sub(start))
	}
	if got := e.Activations() - acts; got != 0 {
		t.Errorf("%d process activations on the fault path, want 0", got)
	}
}

// TestSubmitAsyncRefusesTrapPerRequest: trap-per-request mode has no
// user-space fast path at all; Submit charges the per-request syscall
// trap as a timer before its store.
func TestSubmitAsyncRefusesTrapPerRequest(t *testing.T) {
	e, k := stack(t)
	c := openRaw(t, e, k)
	c.TrapPerRequest = true
	var s submitted
	start := e.Now()
	if _, now := s.submit(t, e, c, 10*time.Microsecond); now {
		t.Fatal("a trapped submission returned at once")
	}
	e.RunFor(time.Millisecond)
	costs := k.Costs()
	if want := start.Add(costs.SyscallTrap + costs.DirectWrite); s.storedAt != want {
		t.Errorf("trapped store returned at %v, want %v", s.storedAt, want)
	}
	if want := start.Add(costs.SyscallTrap + costs.DirectWrite + 10*time.Microsecond); s.doneAt != want {
		t.Errorf("trapped request completed at %v, want %v", s.doneAt, want)
	}
}

// TestSubmitCommitsFaultAtRefusal: a store that found the register
// engaged is committed to the fault at that instant, so a scheduler
// that disengages the page in the same instant does not turn it into a
// direct write — the committed-fault rule an atomic blocking store's
// check-then-fault obeys.
func TestSubmitCommitsFaultAtRefusal(t *testing.T) {
	e, k := stack(t)
	c := openRaw(t, e, k)
	reg := c.Channel(gpu.Compute).Reg
	reg.SetPresent(false)
	faults, writes := reg.Faults, reg.DirectWrites

	var s submitted
	start := e.Now()
	s.submit(t, e, c, 10*time.Microsecond)
	reg.SetPresent(true) // the scheduler disengages within the instant
	e.RunFor(time.Millisecond)
	if reg.Faults != faults+1 || reg.DirectWrites != writes {
		t.Errorf("faults %d, direct writes %d; want the committed fault and no direct write",
			reg.Faults-faults, reg.DirectWrites-writes)
	}
	if waited := s.storedAt.Sub(start); waited < k.Costs().FaultTrap {
		t.Errorf("store returned after %v, want at least the fault trap %v", waited, k.Costs().FaultTrap)
	}
}

// TestSubmitFaultReturnsInline: a fault whose every step costs nothing
// is delivered inside Submit, which reports it instead of calling fn.
func TestSubmitFaultReturnsInline(t *testing.T) {
	e := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	cfg.Costs.FaultTrap, cfg.Costs.FaultScan = 0, 0
	k := neon.NewKernel(gpu.New(e, cfg), passthrough{})
	c := openRaw(t, e, k)
	c.Channel(gpu.Compute).Reg.SetPresent(false)
	var s submitted
	r, now := s.submit(t, e, c, 10*time.Microsecond)
	if !now || r == nil {
		t.Fatalf("Submit returned r=%v now=%v, want the store returned at once", r, now)
	}
	e.RunFor(time.Millisecond)
	if s.storedCalls != 0 || s.done != r {
		t.Errorf("fn ran %d times (want 0), completion saw %v (want the request)", s.storedCalls, s.done)
	}
}

// TestSubmitUnopenedKind: a kind the client never opened is an error,
// for raw and virtual clients alike — nothing is staged, neither
// continuation runs, and nothing dereferences the missing channel.
func TestSubmitUnopenedKind(t *testing.T) {
	e, k := stack(t)
	raw := openRaw(t, e, k)
	var vc *Client
	opened := func(c *Client, err error) {
		if err != nil {
			t.Fatalf("virtual open: %v", err)
		}
		vc = c
	}
	if c, now, err := OpenVirtualAsync(k, k.NewTask("v"), "v", []gpu.Kind{gpu.Compute}, opened); now {
		opened(c, err)
	}
	e.RunFor(time.Millisecond)
	for _, c := range []*Client{raw, vc} {
		calls := 0
		count := func(*gpu.Request) { calls++ }
		r, _, err := c.Submit(gpu.Graphics, 10*time.Microsecond, count, count)
		if err == nil || r != nil || !strings.Contains(err.Error(), "graphics") {
			t.Errorf("virtual=%v: Submit = %v, %v; want an error naming the kind", c.VC != nil, r, err)
		}
		e.RunFor(time.Millisecond)
		if calls != 0 {
			t.Errorf("virtual=%v: %d continuations ran for an unopened kind", c.VC != nil, calls)
		}
	}
}

// TestSubmitAttachesDetachedContext: on a virtual client whose context
// holds no hardware slot, Submit stages nothing until the attach
// finishes and its store returns once the request is on the device; a
// task killed while waiting for the slot gets fn(nil) and no
// completion.
func TestSubmitAttachesDetachedContext(t *testing.T) {
	for _, kill := range []bool{false, true} {
		e := sim.NewEngine()
		cfg := gpu.DefaultConfig()
		cfg.MaxContexts = 1
		k := neon.NewKernel(gpu.New(e, cfg), passthrough{})
		holder := openRaw(t, e, k)
		task := k.NewTask("v")
		c, now, err := OpenVirtualAsync(k, task, "v", []gpu.Kind{gpu.Compute}, nil)
		if !now || err != nil || c.VC.Attached() {
			t.Fatalf("virtual open: now=%v err=%v, want a detached context at once", now, err)
		}
		var s submitted
		r, now := s.submit(t, e, c, 10*time.Microsecond)
		if r != nil || now {
			t.Fatalf("kill=%v: Submit staged %v (now=%v) before the attach", kill, r, now)
		}
		e.RunFor(time.Millisecond)
		if kill {
			k.KillTask(task, "test: die waiting for a slot")
		} else {
			holder.Task.Exit()
		}
		e.RunFor(time.Millisecond)
		switch {
		case s.storedCalls != 1:
			t.Errorf("kill=%v: fn ran %d times, want once", kill, s.storedCalls)
		case kill && (s.stored != nil || s.doneRan != 0):
			t.Errorf("kill=%v: fn saw %v and completion ran %d times; want nil and none", kill, s.stored, s.doneRan)
		case !kill && (s.stored == nil || s.done != s.stored || s.storedAt >= s.doneAt):
			t.Errorf("kill=%v: fn saw %v at %v, completion %v at %v; want the attached request stored, then done",
				kill, s.stored, s.storedAt, s.done, s.doneAt)
		}
	}
}
