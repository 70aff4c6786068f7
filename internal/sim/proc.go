package sim

import "fmt"

// procState tracks where a Proc is in its lifecycle.
type procState int

const (
	procReady procState = iota
	procRunning
	procBlocked
	procFinished
)

// killSignal is the panic value used to unwind a killed process.
type killSignal struct{ name string }

// Proc is a simulated process: a goroutine that runs in strict handoff
// with the engine. At most one of {engine, any proc} executes at a time,
// which keeps the simulation deterministic.
//
// A Proc may only call its blocking methods (Sleep, Wait, Yield) from its
// own body function.
type Proc struct {
	engine *Engine
	name   string
	state  procState
	killed bool
	parked bool // blocked in Park, awaiting Resume

	resume chan bool // engine -> proc; value true means "you were killed"
	yield  chan struct{}

	gate     *Gate // gate currently blocked on, if any
	wakeup   Timer
	finished func(*Proc)

	// activateFn is the pre-bound activation closure, allocated once at
	// Spawn so that every wakeup (Sleep, Gate release, Kill) schedules it
	// without allocating a fresh closure on the hot path.
	activateFn func()
}

// Spawn starts a new process executing body. The body begins running at
// the current virtual time, after the spawning context yields control
// back to the engine.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		engine: e,
		name:   name,
		state:  procReady,
		resume: make(chan bool),
		yield:  make(chan struct{}),
	}
	p.activateFn = func() { p.activate() }
	e.procs++
	go p.run(body)
	e.Schedule(e.now, p.activateFn)
	return p
}

func (p *Proc) run(body func(p *Proc)) {
	<-p.resume // wait for first activation
	defer func() {
		r := recover()
		if _, ok := r.(killSignal); ok {
			r = nil
		}
		p.state = procFinished
		p.engine.procs--
		if r != nil {
			p.engine.panicked = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			p.engine.hasPanic = true
		}
		if p.finished != nil && r == nil {
			fn := p.finished
			p.finished = nil
			fn(p)
		}
		p.yield <- struct{}{}
	}()
	if p.killed {
		panic(killSignal{p.name})
	}
	p.state = procRunning
	body(p)
}

// activate hands control to the process and waits for it to yield.
// Must run in engine context. The inProc window brackets exactly the
// span during which process code may be on the stack, which is what
// InProcContext reports.
func (p *Proc) activate() {
	if p.state == procFinished {
		return
	}
	p.engine.inProc++
	p.engine.activations++
	p.resume <- p.killed
	<-p.yield
	p.engine.inProc--
}

// block suspends the process until some event calls activate again.
func (p *Proc) block() {
	p.state = procBlocked
	p.yield <- struct{}{}
	killed := <-p.resume
	if killed || p.killed {
		panic(killSignal{p.name})
	}
	p.state = procRunning
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.engine }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.engine.now }

// Finished reports whether the process body has returned (or been killed).
func (p *Proc) Finished() bool { return p.state == procFinished }

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// OnFinish registers fn to run (in engine context) when the body returns
// normally. It is not invoked for killed processes.
func (p *Proc) OnFinish(fn func(*Proc)) { p.finished = fn }

// Sleep advances the process's local time by d: the process blocks and is
// woken after d of virtual time. Zero and negative durations return
// immediately without yielding.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		return
	}
	p.wakeup = p.engine.After(d, p.activateFn)
	p.block()
	p.wakeup = Timer{}
}

// SleepUntil blocks the process until absolute time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.engine.now {
		return
	}
	p.Sleep(t.Sub(p.engine.now))
}

// Wait blocks the process until g is signaled (or open). See Gate.
func (p *Proc) Wait(g *Gate) { g.wait(p) }

// WaitFor blocks until pred() is true, re-testing each time g is
// signaled. If g is open, pred is still required to pass; the process
// yields between tests only when the gate is closed.
func (p *Proc) WaitFor(g *Gate, pred func() bool) {
	for !pred() {
		g.wait(p)
	}
}

// WaitTimeout blocks until g is signaled or d elapses, whichever comes
// first. It reports whether the wait timed out.
func (p *Proc) WaitTimeout(g *Gate, d Duration) (timedOut bool) {
	if g.open || d <= 0 {
		return d <= 0 && !g.open
	}
	fired := false
	t := p.engine.After(d, func() {
		if p.gate == g {
			g.remove(p)
			p.gate = nil
			fired = true
			p.activate()
		}
	})
	g.wait(p)
	t.Stop()
	return fired
}

// Park blocks the process until engine code calls Resume (or the
// process is killed). It is the gate-free wait of a process that hands
// its work to a continuation machine and must be resumed at the exact
// event where that machine finishes: the machine holds the *Proc and
// calls Resume, so no gate or wake closure is built per wait.
func (p *Proc) Park() {
	p.parked = true
	p.block()
}

// Resume runs a process parked in Park inline, inside the current
// event, and returns when it blocks again (or finishes). A killed process is left to the activation Kill
// scheduled, so a machine finishing after its caller died resumes
// nothing. Resume must be called from engine context and panics if the
// process is live but not parked.
func (p *Proc) Resume() {
	if p.engine.inProc > 0 {
		panic("sim: Proc.Resume from process context")
	}
	if p.killed || p.state == procFinished {
		return
	}
	if !p.parked {
		panic("sim: Proc.Resume on " + p.name + ", which is not parked")
	}
	p.parked = false
	p.activate()
	p.engine.rethrow()
}

// Kill marks the process as killed and unwinds it. If the process is
// blocked, it is woken immediately (at the current virtual time) and its
// body panics with an internal signal that Spawn's wrapper absorbs.
// Killing a finished process is a no-op. Kill must be called from engine
// or other-process context, never from the process itself.
func (p *Proc) Kill() {
	if p.state == procFinished || p.killed {
		return
	}
	p.killed = true
	p.wakeup.Stop() // inert if no sleep is outstanding (zero Timer)
	p.wakeup = Timer{}
	if p.gate != nil {
		p.gate.remove(p)
		p.gate = nil
	}
	if p.state == procBlocked || p.state == procReady {
		p.engine.Schedule(p.engine.now, p.activateFn)
	}
}
