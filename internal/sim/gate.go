package sim

// Gate is a condition-variable-like wakeup point in virtual time.
//
// Processes block on a Gate with Proc.Wait or Proc.WaitFor; engine code
// registers a one-shot continuation with Notify. Wakers call Signal
// (wake one), Broadcast (wake all), or Open/Close (level-triggered:
// while open, waits pass immediately). Wakeups are delivered as events
// at the current virtual time, so a waker never runs a waiter's code
// inline.
type Gate struct {
	engine  *Engine
	name    string
	open    bool
	waiters []waiter
}

// waiter is one parked process (p) or one continuation (fn).
type waiter struct {
	p  *Proc
	fn func()
}

// NewGate returns a closed gate.
func (e *Engine) NewGate(name string) *Gate {
	return &Gate{engine: e, name: name}
}

// Name returns the gate's name.
func (g *Gate) Name() string { return g.name }

// IsOpen reports whether the gate is currently open.
func (g *Gate) IsOpen() bool { return g.open }

// Open opens the gate and wakes all current waiters. Future waits pass
// immediately until Close is called.
func (g *Gate) Open() {
	g.open = true
	g.Broadcast()
}

// Close closes the gate; future waits will block.
func (g *Gate) Close() { g.open = false }

// Signal wakes a single waiter (the longest-waiting one), if any.
func (g *Gate) Signal() {
	if len(g.waiters) == 0 {
		return
	}
	w := g.waiters[0]
	g.drop(0)
	g.release(w)
}

// Broadcast wakes all current waiters.
func (g *Gate) Broadcast() {
	ws := g.waiters
	g.waiters = g.waiters[:0] // keep capacity: gates are reused hot
	for i, w := range ws {
		ws[i] = waiter{} // release the continuation for GC
		g.release(w)
	}
}

// Waiters returns the number of processes and continuations currently
// waiting on the gate.
func (g *Gate) Waiters() int { return len(g.waiters) }

// Notify registers fn as a one-shot continuation on the gate: the
// engine-context counterpart of Proc.Wait. On an open gate fn runs
// inline, as a process's Wait would pass without yielding. Otherwise fn
// joins the same FIFO as parked processes, and a wake schedules it at
// the current instant exactly where the woken process's activation
// would have gone, so converting a waiting process into a continuation
// moves no event.
func (g *Gate) Notify(fn func()) {
	if g.open {
		fn()
		return
	}
	g.waiters = append(g.waiters, waiter{fn: fn})
}

func (g *Gate) release(w waiter) {
	if w.fn != nil {
		g.engine.Schedule(g.engine.now, w.fn)
		return
	}
	w.p.gate = nil
	g.engine.Schedule(g.engine.now, w.p.activateFn)
}

func (g *Gate) wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, waiter{p: p})
	p.gate = g
	p.block()
}

// drop removes waiter i in place, keeping FIFO order and capacity.
func (g *Gate) drop(i int) {
	n := copy(g.waiters[i:], g.waiters[i+1:])
	g.waiters[i+n] = waiter{}
	g.waiters = g.waiters[:i+n]
}

func (g *Gate) remove(p *Proc) {
	for i, w := range g.waiters {
		if w.p == p {
			g.drop(i)
			return
		}
	}
}
