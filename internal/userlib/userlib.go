// Package userlib is the user-level runtime library of the stack — the
// stand-in for the vendor's CUDA/OpenCL/OpenGL libraries. Applications
// use it to set up GPU contexts and channels (syscalls, caught by the
// kernel's initialization phase) and to submit requests through the
// direct-mapped channel registers.
//
// Submission has one entry point, Client.Submit, which runs in engine
// context and never blocks. On a direct-mapped register it is what the
// paper's fast path is: a staged request and a store to the channel
// register, with no kernel involvement. Everything that makes a store
// wait — a virtual context that must attach first, an engaged register
// whose store faults into the kernel, or the trap-per-request mode
// modeling the alternative stack design (the paper's AMD Catalyst
// comparison point, used by the Section 3 experiment) — is Submit's
// slow path, run as continuations at the event positions a blocking
// store's wakeups would have had. Batch stages a backlog behind one
// doorbell.
package userlib

import (
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// Client is a task's handle to the GPU: one context plus one channel per
// requested kind. A client opened with OpenVirtualAsync holds a logical
// context instead (VC non-nil): the hardware context is attached lazily
// per submission and may be transparently evicted and re-attached by
// the kernel's virtual-context mux.
type Client struct {
	Task *neon.Task
	Ctx  *gpu.Context

	// VC is the logical context backing a virtual client; nil for raw
	// clients opened with Open.
	VC *neon.VContext

	kernel   *neon.Kernel
	eng      *sim.Engine
	dw       sim.Duration // cost.Model.DirectWrite, the doorbell latency
	channels map[gpu.Kind]*gpu.Channel
	order    []gpu.Kind

	// free pools the records of submissions that wait on something;
	// the first record lives inline, so a client whose submissions
	// wait one at a time allocates no record of its own.
	free  *submission
	first submission

	// TrapPerRequest switches submissions to the syscall path: every
	// request pays a kernel trap (plus driver work if TrapDriverWork),
	// bypassing the direct-mapped interface entirely.
	TrapPerRequest bool
	// TrapDriverWork adds nontrivial driver processing to each trap.
	TrapDriverWork bool
}

func newClient(k *neon.Kernel, t *neon.Task) *Client {
	c := &Client{Task: t, kernel: k, eng: k.Engine(), dw: k.Costs().DirectWrite}
	c.first.bind(c)
	c.free = &c.first
	return c
}

// Open creates a context and one channel per kind for the task. It is
// called from the task's own process p and pays the setup syscall costs.
func Open(p *sim.Proc, k *neon.Kernel, t *neon.Task, label string, kinds ...gpu.Kind) (*Client, error) {
	ctx, err := k.CreateContext(p, t, label)
	if err != nil {
		return nil, err
	}
	c := newClient(k, t)
	c.Ctx = ctx
	c.channels = make(map[gpu.Kind]*gpu.Channel, len(kinds))
	for _, kind := range kinds {
		cs, err := k.CreateChannel(p, t, ctx, kind)
		if err != nil {
			return nil, err
		}
		c.channels[kind] = cs.Ch
		c.order = append(c.order, kind)
	}
	return c, nil
}

// OpenAsync runs Open on a new thread of the task — the setup syscalls
// are paid in process context — and hands the result to fn on that
// thread, which ends when fn returns. Closed-loop drivers start their
// submission machines from fn, so the thread lives for setup only.
func OpenAsync(k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, fn func(*Client, error)) {
	t.Go("main", func(p *sim.Proc) { fn(Open(p, k, t, label, kinds...)) })
}

// OpenVirtualAsync creates a client backed by a logical (virtual)
// context, over neon.Kernel.OpenVirtualAsync: the task can always open
// one, regardless of how many hardware contexts the device has, and the
// kernel multiplexes the hardware pool underneath. When a hardware slot
// is free the context attaches eagerly, paying exactly the setup
// syscalls Open would; otherwise the first submission attaches. An
// open that finishes at once returns the client with now set and never
// calls fn; otherwise fn receives the client (or the error) in the
// event where the eager attach finishes.
func OpenVirtualAsync(k *neon.Kernel, t *neon.Task, label string, kinds []gpu.Kind, fn func(*Client, error)) (c *Client, now bool, err error) {
	vc, now, err := k.OpenVirtualAsync(t, label, kinds, func(vc *neon.VContext, err error) {
		if err != nil {
			fn(nil, err)
			return
		}
		fn(virtualClient(k, vc, kinds), nil)
	})
	if !now || err != nil {
		return nil, now, err
	}
	return virtualClient(k, vc, kinds), true, nil
}

func virtualClient(k *neon.Kernel, vc *neon.VContext, kinds []gpu.Kind) *Client {
	c := newClient(k, vc.Task())
	c.VC = vc
	c.order = append([]gpu.Kind(nil), kinds...)
	return c
}

// Channel returns the client's channel of the given kind, or nil. For a
// virtual client this is the currently attached hardware channel; nil
// while detached.
func (c *Client) Channel(kind gpu.Kind) *gpu.Channel {
	if c.VC != nil {
		return c.VC.ChannelIf(kind)
	}
	return c.channels[kind]
}

// Kinds returns the channel kinds the client opened, in creation order.
func (c *Client) Kinds() []gpu.Kind { return c.order }

// Submit stages a request of the given size on the kind's channel and
// rings its doorbell. It runs in engine (or process) context, never
// blocks and never refuses: whatever a blocking store would have waited
// through, it runs as continuations, one step per event a blocking
// store's wakeup would have had.
//
// The fast path — no trap mode, and a direct-mapped register on a
// channel at hand without attaching — stages the request and rings the
// doorbell with mmio.Page.StoreAsync, which reaches the device
// DirectWrite later. Otherwise the slow path runs: a virtual context
// that is not attached attaches first (neon.VContext.AcquireAsync), the
// trap-per-request mode sleeps its trap as a timer, and the store is
// then made — direct if the register is present at that instant, or
// else committed to the fault machine (mmio.Page.StoreFaultingAsync)
// at that same instant, so a scheduler that disengages the page a
// moment later does not turn a store that found it engaged into a
// direct write (the committed-fault rule). The fast path's check only
// peeks at a virtual context (neon.VContext.Peek), so every submission
// charges the mux LRU clock exactly once (the peek rule), and a virtual
// context stays pinned until its store is delivered, as a blocking
// store holds it across the DirectWrite (the pin-until-delivery rule).
//
// onDone, if non-nil, runs once in engine context when the request
// completes or aborts, before its done gate opens (gpu.Request.OnDone).
// fn, if non-nil, runs once where a blocking store would have returned:
// DirectWrite after the doorbell, or in the event that delivers a
// faulting store. It receives the request, or nil when the task died
// before its virtual context could attach and nothing was staged; a
// caller that passes no fn does not learn of that case. When the store
// returned within the call (a fault whose every step cost nothing)
// Submit reports now and fn is not called.
//
// Submit returns the request if it was staged within the call (nil
// while a virtual context attaches). It returns an error, staging
// nothing and calling neither continuation, when the client opened no
// channel of the kind or its task is already dead.
func (c *Client) Submit(kind gpu.Kind, size sim.Duration, onDone, fn func(*gpu.Request)) (r *gpu.Request, now bool, err error) {
	ch, fast, err := c.fastPath(kind)
	if err != nil {
		return nil, true, err
	}
	if fast {
		if c.VC != nil {
			c.VC.AcquireIf(kind)
		}
		r = ch.Stage(size, kind)
		r.OnDone = onDone
		if !ch.Reg.StoreAsync(c.eng, r.Ref) {
			panic("userlib: async store refused on a present page")
		}
		if c.VC == nil && fn == nil {
			return r, false, nil
		}
		s := c.record(kind, size, onDone, fn)
		s.ch, s.r, s.stored = ch, r, true
		c.eng.After(c.dw, s.stepFn)
		return r, false, nil
	}
	s := c.record(kind, size, onDone, fn)
	if c.VC == nil {
		s.ch = ch
	} else if s.ch, now, err = c.VC.AcquireAsync(kind, s.acquiredFn); !now {
		return nil, false, nil
	} else if err != nil {
		c.put(s)
		return nil, true, err
	}
	s.onsite = true
	s.stage()
	r = s.r
	s.onsite = false
	if s.returned {
		c.put(s)
		return r, true, nil
	}
	return r, false, nil
}

// fastPath resolves the kind's channel and reports whether a
// submission may take the fast path on it. A virtual context is only
// peeked at (the peek rule): the slow path's acquire is the one use the
// submission charges. It fails for a kind the client never opened and
// for a dead task.
func (c *Client) fastPath(kind gpu.Kind) (*gpu.Channel, bool, error) {
	ch, ok := c.channels[kind], true
	if c.VC != nil && slices.Contains(c.order, kind) {
		ch, ok = c.VC.Peek(kind)
	} else if ch == nil {
		return nil, false, fmt.Errorf("userlib: task %q opened no %v channel", c.Task.Name, kind)
	}
	if !c.Task.Alive {
		return nil, false, gpu.ErrContextDead
	}
	return ch, ok && !c.TrapPerRequest && ch.Reg.Present(), nil
}

// submission is one Submit that waits on something: an attach, a trap,
// a faulting store, or (on a virtual context, or with an fn to call) a
// doorbell's DirectWrite. Records are pooled per client with their
// callbacks bound once, so a waiting submission allocates nothing once
// the pool has grown.
type submission struct {
	c      *Client
	next   *submission // free-list link
	kind   gpu.Kind
	size   sim.Duration
	onDone func(*gpu.Request)
	fn     func(*gpu.Request)
	ch     *gpu.Channel
	r      *gpu.Request

	// stored is set once the doorbell store is made: stepFn then returns
	// the store instead of making it. onsite is set while Submit's own
	// call runs the steps; a store that returns then sets returned
	// instead of calling fn.
	stored, onsite, returned bool

	stepFn     func()                    // the trap's, the write's or the fault's continuation
	acquiredFn func(*gpu.Channel, error) // the attach's continuation
}

// record takes a submission record from the client's pool.
func (c *Client) record(kind gpu.Kind, size sim.Duration, onDone, fn func(*gpu.Request)) *submission {
	s := c.free
	if s != nil {
		c.free = s.next
	} else {
		s = new(submission)
		s.bind(c)
	}
	s.kind, s.size, s.onDone, s.fn = kind, size, onDone, fn
	return s
}

// bind sets up a fresh record of the client's pool.
func (s *submission) bind(c *Client) {
	s.c = c
	s.stepFn = s.step
	s.acquiredFn = s.acquired
}

// put returns a record to the pool.
func (c *Client) put(s *submission) {
	*s = submission{c: c, next: c.free, stepFn: s.stepFn, acquiredFn: s.acquiredFn}
	c.free = s
}

// acquired is the attach machine's continuation: the pinned channel,
// or an error when the task died first.
func (s *submission) acquired(ch *gpu.Channel, err error) {
	if err != nil {
		s.returnTo(nil)
		return
	}
	s.ch = ch
	s.stage()
}

// stage stages the request, then stores its doorbell — after the trap
// in trap-per-request mode.
func (s *submission) stage() {
	c := s.c
	s.r = s.ch.Stage(s.size, s.kind)
	s.r.OnDone = s.onDone
	if c.TrapPerRequest {
		costs := c.kernel.Costs()
		d := costs.SyscallTrap
		if c.TrapDriverWork {
			d += costs.SyscallDriverWork
		}
		if d > 0 {
			c.eng.After(d, s.stepFn)
			return
		}
	}
	s.store()
}

// step is the timer and fault continuation: after the trap it makes
// the store, after the store it returns it.
func (s *submission) step() {
	if s.stored {
		s.returnTo(s.r)
		return
	}
	s.store()
}

// store makes the doorbell store, deciding direct or fault at this
// instant: a direct store returns DirectWrite later, and a faulting
// store where the fault machine delivers it.
func (s *submission) store() {
	s.stored = true
	reg := s.ch.Reg
	if reg.StoreAsync(s.c.eng, s.r.Ref) {
		s.c.eng.After(s.c.dw, s.stepFn)
		return
	}
	if reg.StoreFaultingAsync(s.c.eng, s.r.Ref, s.stepFn) {
		s.returnTo(s.r)
	}
}

// returnTo ends the submission where its store returns: a virtual
// context's pin is released, the record is recycled, and fn continues
// the caller — unless Submit is still on the stack, which reports the
// return itself.
func (s *submission) returnTo(r *gpu.Request) {
	c, fn := s.c, s.fn
	if c.VC != nil && r != nil {
		c.VC.Release()
	}
	if s.onsite {
		s.returned = true
		return
	}
	c.put(s)
	if fn != nil {
		fn(r)
	}
}

// Batch stages several requests on one channel and rings a single
// doorbell for all of them — the open-loop dispatchers' backlog-drain
// path, paying one StoreAsync and one device kick per batch instead of
// per request. The hardware model makes this exact: a doorbell store
// carries the highest staged reference value, and the device moves every
// staged request up to it into the ring at delivery (gpu.Device
// doorbell), so the whole batch reaches the device in one event at
// now+DirectWrite — same-instant delivery for all members.
//
// A batch must begin, stage, and flush within a single engine instant
// (no process yields in between): Begin checks the fast path once, and
// the page cannot change state under an atomic instant.
type Batch struct {
	c    *Client
	ch   *gpu.Channel
	n    int
	last uint64
}

// BeginBatch opens a batch on the kind's channel, pinning a virtual
// client's context until Flush. It refuses — staging nothing — when
// Submit would not take its fast path (trap-per-request mode, engaged
// register, or detached virtual context; the peek rule applies);
// callers then submit per request, which preserves the per-request
// fault/trap sequence engaged schedulers depend on.
func (c *Client) BeginBatch(kind gpu.Kind) (Batch, bool) {
	ch, fast, err := c.fastPath(kind)
	if err != nil || !fast {
		return Batch{}, false
	}
	if c.VC != nil {
		c.VC.AcquireIf(kind)
	}
	return Batch{c: c, ch: ch}, true
}

// Stage adds one request to the batch without ringing the doorbell. The
// continuation fires per request, exactly as with Submit.
func (b *Batch) Stage(size sim.Duration, kind gpu.Kind, onDone func(*gpu.Request)) *gpu.Request {
	r := b.ch.Stage(size, kind)
	r.OnDone = onDone
	b.n++
	b.last = r.Ref
	return r
}

// Len returns the number of requests staged so far.
func (b *Batch) Len() int { return b.n }

// Flush rings one doorbell for the whole batch (a no-op for an empty
// one) and unpins a virtual client's context, which pumps the mux
// attach queue if the context goes idle. The batch is dead after
// Flush.
func (b *Batch) Flush(e *sim.Engine) {
	if b.n > 0 {
		if !b.ch.Reg.StoreAsync(e, b.last) {
			panic("userlib: batch doorbell refused on a present page")
		}
	}
	if b.c.VC != nil {
		b.c.VC.Release()
	}
	b.c = nil
	b.ch = nil
}
