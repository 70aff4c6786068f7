package sim

import (
	"reflect"
	"testing"
)

// TestNotifyJoinsProcessFIFO pins the continuation waiter's position:
// process and continuation waiters are released in the order they
// joined, each as an event at the back of the waking instant — after
// work the waker's instant had already queued — so a continuation runs
// exactly where a woken process's activation would.
func TestNotifyJoinsProcessFIFO(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	var order []string
	e.Spawn("p1", func(p *Proc) {
		p.Wait(g)
		order = append(order, "p1")
	})
	e.After(0, func() { g.Notify(func() { order = append(order, "c1") }) })
	e.Spawn("p2", func(p *Proc) {
		p.Wait(g)
		order = append(order, "p2")
	})
	e.After(0, func() { g.Notify(func() { order = append(order, "c2") }) })
	e.RunFor(5)
	if g.Waiters() != 4 {
		t.Fatalf("Waiters = %d, want 4 (two procs, two continuations)", g.Waiters())
	}
	e.After(0, func() {
		e.After(0, func() { order = append(order, "queued") })
		g.Broadcast()
		order = append(order, "waker")
	})
	e.Run()
	want := []string{"waker", "queued", "p1", "c1", "p2", "c2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("release order %v, want %v", order, want)
	}
	if g.Waiters() != 0 {
		t.Fatalf("Waiters = %d after broadcast, want 0", g.Waiters())
	}
}

// TestNotifySignalWakesOneContinuation: Signal releases only the head
// waiter, continuation or not, leaving the rest in place.
func TestNotifySignalWakesOneContinuation(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	var fired []int
	for i := 0; i < 3; i++ {
		g.Notify(func() { fired = append(fired, i) })
	}
	g.Signal()
	e.Run()
	if !reflect.DeepEqual(fired, []int{0}) || g.Waiters() != 2 {
		t.Fatalf("fired %v with %d waiting, want [0] with 2", fired, g.Waiters())
	}
}

// TestNotifyOnOpenGateRunsInline: an open gate passes a continuation
// immediately, inside the caller, as it passes a process's Wait without
// a yield.
func TestNotifyOnOpenGateRunsInline(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	g.Open()
	ran := false
	g.Notify(func() { ran = true })
	if !ran {
		t.Fatal("continuation on an open gate did not run inline")
	}
	if e.Pending() != 0 || g.Waiters() != 0 {
		t.Fatalf("open-gate Notify left %d events, %d waiters", e.Pending(), g.Waiters())
	}
}

// TestActivationsCountsHandoffs: every goroutine handoff into a process
// body counts once — first run, wakeups, and the kill unwind — and
// Reset clears the counter.
func TestActivationsCountsHandoffs(t *testing.T) {
	e := NewEngine()
	g := e.NewGate("g")
	p := e.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		p.Wait(g)
	})
	e.Run()
	if got := e.Activations(); got != 2 {
		t.Fatalf("Activations = %d after first run and one sleep, want 2", got)
	}
	p.Kill()
	e.Run()
	if got := e.Activations(); got != 3 {
		t.Fatalf("Activations = %d after the kill unwind, want 3", got)
	}
	e.Reset()
	if e.Activations() != 0 {
		t.Fatalf("Activations = %d after Reset, want 0", e.Activations())
	}
}

// TestResumeRunsParkedProcessInline: Resume runs a process parked in
// Park inside the caller's event, before the caller's next statement,
// with one activation and no event of its own.
func TestResumeRunsParkedProcessInline(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		order = append(order, "parker@"+p.Now().String())
	})
	e.RunFor(1)
	before := e.Activations()
	e.After(1, func() {
		e.After(0, func() { order = append(order, "queued") })
		order = append(order, "caller")
		p.Resume()
		order = append(order, "caller-after")
	})
	e.Run()
	want := []string{"caller", "parker@2ns", "caller-after", "queued"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if got := e.Activations() - before; got != 1 {
		t.Fatalf("%d activations for one resume, want 1", got)
	}
}

// TestResumeSkipsKilledProcess: a parked process killed before its
// resume unwinds through the kill's own activation; a later Resume is
// a no-op rather than a panic or a second run.
func TestResumeSkipsKilledProcess(t *testing.T) {
	e := NewEngine()
	returned := false
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		returned = true
	})
	e.RunFor(1)
	e.After(0, func() {
		p.Kill()
		p.Resume()
	})
	e.Run()
	p.Resume()
	if returned || !p.Finished() || e.LiveProcs() != 0 {
		t.Fatalf("returned=%v finished=%v live=%d, want an unwound process", returned, p.Finished(), e.LiveProcs())
	}
}

// TestResumePanicsOffPark: Resume refuses process context and a process
// that is not parked (here: sleeping).
func TestResumePanicsOffPark(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	parked := e.Spawn("parked", func(p *Proc) { p.Park() })
	sleeper := e.Spawn("sleeper", func(p *Proc) { p.Sleep(10) })
	e.Spawn("caller", func(p *Proc) {
		mustPanic("Resume from process context", parked.Resume)
	})
	e.RunFor(1)
	mustPanic("Resume of a sleeping process", sleeper.Resume)
}
