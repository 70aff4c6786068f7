// Package mmio models the memory-mapped register interface between user
// space and the accelerator.
//
// Each GPU channel exposes a channel register on its own page. While the
// page is Present, a store costs cost.Model.DirectWrite and goes straight
// to the device — the OS never sees it. When the page is made non-present
// (the scheduler "engages"), a store instead raises a page fault: after
// the trap, the registered FaultHandler takes the fault, may hold it
// arbitrarily long (that is how schedulers delay requests), and when it
// lets the fault go the faulting store is single-stepped to the device
// and the page re-protected.
//
// The fault path is an engine-context continuation machine
// (StoreFaultingAsync): the trap and every step the handler takes are
// events at the positions a faulting process's wakeups would have, and
// the blocking StoreFaulting is a thin wrapper that parks its process
// until the machine delivers the store.
//
// This is the exact interposition point of the paper: protection cannot
// be bypassed by applications because it does not depend on library
// cooperation.
package mmio

import (
	"repro/internal/cost"
	"repro/internal/sim"
)

// FaultHandler takes every store to a non-present page once its
// FaultTrap has elapsed, in engine context. Handle may hold the fault
// through further steps of its own (Fault.Then) and ends it with
// Fault.Deliver, which single-steps the store to the device. One
// handler serves every page a kernel intercepts and pools their fault
// records, so a fault allocates nothing once the pool has grown.
type FaultHandler struct {
	Handle func(f *Fault)
	free   []*Fault
}

// Fault is one store in flight on the fault path.
type Fault struct {
	Page  *Page
	Value uint64
	// State is the handler's own per-fault state, carried across its
	// steps (the kernel keeps the faulting channel here).
	State any

	h      *FaultHandler
	caller *sim.Proc    // a blocking caller, resumed at delivery
	fn     func()       // an engine caller's continuation
	onsite bool         // startFault is still on the stack
	done   bool         // delivered while onsite
	step   func(*Fault) // the step Then scheduled
	stepFn func()       // f.resume, bound once
}

// Sink receives stores after they are allowed through (directly or via
// fault single-stepping). The GPU's channel doorbell is a Sink.
type Sink func(value uint64)

// Page is one device-register page that can be mapped into a task.
type Page struct {
	costs   cost.Model
	present bool
	handler *FaultHandler
	sink    Sink

	// Deferred-store state for StoreAsync: values whose DirectWrite
	// propagation delay has not yet elapsed, delivered FIFO by deliverFn
	// (bound once at construction so the fast path does not allocate).
	// pending starts on the inline one-slot pendBuf: a channel rarely
	// has more than one doorbell in flight, so the first StoreAsync on a
	// fresh page allocates nothing.
	pending   []uint64
	pendBuf   [1]uint64
	deliverFn func()

	// Counters for tests and experiments.
	DirectWrites int64
	Faults       int64
}

// NewPage returns a page that is initially present (direct access).
func NewPage(costs cost.Model, sink Sink) *Page {
	pg := &Page{costs: costs, present: true, sink: sink}
	pg.pending = pg.pendBuf[:0]
	pg.deliverFn = pg.deliver
	return pg
}

// Present reports whether direct user-space access is currently enabled.
func (pg *Page) Present() bool { return pg.present }

// SetPresent flips the page mapping. Present=false means the next store
// faults into the handler. Called by the kernel (NEON), never by tasks.
func (pg *Page) SetPresent(present bool) { pg.present = present }

// SetHandler installs the kernel fault handler.
func (pg *Page) SetHandler(h *FaultHandler) { pg.handler = h }

// Store performs a user-space store to the page from process p, paying
// the appropriate cost and faulting if the page is protected.
func (pg *Page) Store(p *sim.Proc, value uint64) {
	if pg.present {
		pg.DirectWrites++
		p.Sleep(pg.costs.DirectWrite)
		pg.sink(value)
		return
	}
	pg.StoreFaulting(p, value)
}

// StoreFaulting delivers a store through the fault path regardless of
// the page's current mapping. Store commits a store to the fault at the
// instant it observes the page non-present — the page may be remapped
// during the trap and the handler still runs. A caller that makes the
// same observation in engine context (a continuation machine whose
// fast-path store was refused) owes the same commitment and takes the
// fault with StoreFaultingAsync at that instant.
//
// It is the blocking wrapper of StoreFaultingAsync: p parks while the
// machine runs and is resumed inline (sim.Proc.Resume) in the event
// that delivers the store, so it continues where a process sleeping
// through the trap and the handler's waits would have. A p killed
// while parked is never resumed, and its store is never delivered.
func (pg *Page) StoreFaulting(p *sim.Proc, value uint64) {
	if f := pg.startFault(p.Engine(), value); f != nil {
		f.caller = p
		p.Park()
	}
}

// StoreFaultingAsync is the engine-context form of StoreFaulting, the
// fault machine: the trap (FaultTrap, as an event), then the handler,
// which holds the fault through its own steps, then the single-stepped
// store. When the whole fault finishes before the call returns — every
// step free and the handler letting it go at once — it reports true and
// never calls fn; otherwise fn runs once, right after the store reaches
// the sink, in the event that delivers it.
func (pg *Page) StoreFaultingAsync(e *sim.Engine, value uint64, fn func()) (now bool) {
	f := pg.startFault(e, value)
	if f == nil {
		return true
	}
	f.fn = fn
	return false
}

// startFault takes a fault record from the handler's pool and runs the
// machine up to its first wait. It returns nil, the record back in the
// pool, when the fault was delivered before that.
func (pg *Page) startFault(e *sim.Engine, value uint64) *Fault {
	pg.Faults++
	var f *Fault
	if h := pg.handler; h != nil && len(h.free) > 0 {
		f = h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
	} else {
		f = &Fault{h: h}
		f.stepFn = f.resume
	}
	f.Page, f.Value, f.onsite = pg, value, true
	if d := pg.costs.FaultTrap; d > 0 {
		e.After(d, f.Then(trapped))
	} else {
		trapped(f)
	}
	f.onsite = false
	if f.done {
		f.release()
		return nil
	}
	return f
}

// trapped is the step after the trap: the handler takes the fault.
func trapped(f *Fault) {
	if h := f.Page.handler; h != nil {
		h.Handle(f)
		return
	}
	f.Deliver()
}

// Then returns a callback that runs step(f) — the handler schedules it
// (a timer, a gate continuation) to hold the fault across a wait. A
// fault whose blocking caller was killed in the meantime is dropped
// there instead: its store is never delivered, as a killed process
// never wakes from its sleep. One step is pending per fault at a time,
// and the callback is bound once per record.
func (f *Fault) Then(step func(*Fault)) func() {
	f.step = step
	return f.stepFn
}

func (f *Fault) resume() {
	if f.caller != nil && f.caller.Killed() {
		f.release()
		return
	}
	f.step(f)
}

// Deliver ends the fault: the store is single-stepped to the device and
// the caller continues (a blocking caller is resumed, an engine
// caller's continuation runs). Protection state afterwards is whatever
// the handler chose (NEON re-protects by leaving present=false).
func (f *Fault) Deliver() {
	f.Page.sink(f.Value)
	if f.onsite {
		f.done = true
		return
	}
	p, fn := f.caller, f.fn
	f.release()
	if p != nil {
		p.Resume()
		return
	}
	fn()
}

// release returns the record to its handler's pool.
func (f *Fault) release() {
	*f = Fault{h: f.h, stepFn: f.stepFn}
	if f.h != nil {
		f.h.free = append(f.h.free, f)
	}
}

// StoreAsync performs a direct store without blocking the calling
// process: the value reaches the sink after the same DirectWrite
// propagation delay as Store, but as an engine event rather than a
// process wakeup, saving the goroutine handoff. It reports false — and
// does nothing — when the page is protected: the store must take the
// fault, which the caller does with StoreFaultingAsync (or Store).
//
// Only callers that do not act between the store and the next blocking
// point may use it (the store's side effects become visible at
// now+DirectWrite, after the caller has moved on); a submit-and-wait
// path qualifies.
func (pg *Page) StoreAsync(e *sim.Engine, value uint64) bool {
	if !pg.present {
		return false
	}
	pg.DirectWrites++
	pg.pending = append(pg.pending, value)
	e.After(pg.costs.DirectWrite, pg.deliverFn)
	return true
}

// deliver releases the oldest deferred store to the sink. Deliveries are
// FIFO: every deferred store schedules one deliver event a constant
// delay after issue, so event order matches issue order.
func (pg *Page) deliver() {
	v := pg.pending[0]
	n := copy(pg.pending, pg.pending[1:])
	pg.pending = pg.pending[:n]
	pg.sink(v)
}
