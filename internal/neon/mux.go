package neon

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// This file is the virtual-context multiplexing front-end: a per-device
// table of logical contexts that lets the kernel host far more clients
// than the device's fixed pool of hardware contexts (48 on the paper's
// GTX670). A logical context (VContext) is bound to a task for its
// lifetime and lazily attached to a hardware context on first use. When
// the pool is exhausted, an idle logical context is detached LRU-style
// — its hardware slot (context plus channels) is gracefully released
// back to the device without disturbing the task's device memory — and
// the next attach of that logical context recreates the hardware state,
// paying the setup syscalls plus the paper's ContextSwitch cost.
//
// Attach order under exhaustion is FIFO: a blocked attach enqueues a
// waiter, and freed slots (request completions that leave a context
// idle, or task exits) are granted to waiters in arrival order. Waiters
// wait on their task's gate, so the machinery adds no simulation
// events unless it is actually exercised — kernels whose clients all
// fit in the hardware pool run an event sequence byte-identical to the
// un-multiplexed stack.
//
// The attach itself is an engine-context continuation machine
// (AcquireAsync): every step a blocking attach would sleep through —
// the attach-queue wait, the context and channel setup syscalls, the
// reattach's context switch — is a continuation scheduled at the event
// position the sleeping process's wakeup would have had. The blocking
// Acquire is a thin wrapper that parks its process and is resumed
// inline where the machine finishes, so there is one attach
// implementation and no goroutine handoff per attach step.

// MuxStats are the kernel's virtual-context multiplexing counters.
type MuxStats struct {
	// Opens counts logical contexts created via OpenVirtual.
	Opens int64
	// Attaches counts hardware attaches (first attach and reattach).
	Attaches int64
	// Reattaches counts attaches that recreated previously evicted
	// hardware state (each pays cost.ContextSwitch on top of setup).
	Reattaches int64
	// Evictions counts LRU detaches of idle logical contexts.
	Evictions int64
	// AttachWaits counts attaches that had to queue for a free slot.
	AttachWaits int64
	// MaxAttached is the high-water mark of concurrently attached
	// logical contexts; it can never exceed the device's MaxContexts.
	MaxAttached int
}

// muxState is the kernel's multiplexing state, nil until the first
// OpenVirtual call so non-multiplexed kernels pay nothing.
type muxState struct {
	vcs      map[*gpu.Context]*VContext // attached, by hardware context
	attached []*VContext                // attach order (unordered set; LRU is by lastUsed)
	waiters  []*VContext                // FIFO attach queue
	reserved int                        // slots granted to waiters not yet consumed
	clock    uint64                     // logical LRU clock, bumped per use
	stats    MuxStats

	// The attach machine's two constant-delay steps: the contexts whose
	// setup syscall (sysQ) or reattach context switch (switchQ) is in
	// flight, in issue order. Each step fires a fixed delay after it is
	// issued, so its events fire in queue order and one callback per
	// step, bound once (sysFn, switchFn), pops the head — the trick
	// mmio.Page uses for its deferred stores.
	sysQ     []*VContext
	switchQ  []*VContext
	sysFn    func()
	switchFn func()

	// syncFree pools the blocking Acquire's per-call records.
	syncFree []*syncAcquire
}

// muxWaiter is a logical context's place in the attach queue. Each
// VContext embeds its own: a context has at most one attach in flight.
type muxWaiter struct {
	waiting bool   // queued, or granted a slot not yet consumed
	granted bool   // a slot is reserved for this context
	wakeFn  func() // the task-gate continuation, bound on first wait
}

// VContext is a logical (virtual) GPU context: the handle user-level
// clients hold instead of a raw *gpu.Context. It is created once per
// client and survives detach/reattach cycles transparently.
type VContext struct {
	k     *Kernel
	task  *Task
	label string
	kinds []gpu.Kind

	hw    *gpu.Context    // nil while detached
	chans []*ChannelState // hardware channels while attached, one per kind

	pins         int    // active users; a pinned context is not evictable
	lastUsed     uint64 // mux clock at last Acquire
	everAttached bool   // reattaches (everAttached && attach) pay ContextSwitch
	attaching    bool   // an attach is in flight; concurrent users wait
	closed       bool   // task exited
	wait         muxWaiter

	// The attach in flight: the hardware context and channels being
	// built (newChans reuses chans' backing array across attaches), and
	// the acquirer the machine finishes for — acqFn, or, while acqFn is
	// nil, the AcquireAsync call still on the stack, which takes the
	// error of an attach that finished inline from acqErr.
	newCtx   *gpu.Context
	newChans []*ChannelState
	acqKind  gpu.Kind
	acqFn    func(*gpu.Channel, error)
	acqErr   error

	reattaches int64
}

// anyKind asks the attach machine for the pin alone, with no channel:
// OpenVirtual's eager attach.
const anyKind gpu.Kind = -1

// OpenVirtual creates a logical context for the task with one channel
// per kind. If a hardware slot is free it attaches eagerly — paying
// exactly the setup syscalls a raw context creation would, so
// populations within the hardware pool are indistinguishable from the
// un-multiplexed stack. Otherwise the logical context starts detached
// and the first Acquire attaches it (queueing for a slot if needed).
func (k *Kernel) OpenVirtual(p *sim.Proc, t *Task, label string, kinds ...gpu.Kind) (*VContext, error) {
	vc, err := k.newVirtual(t, label, kinds)
	if err == nil && k.muxFree() > 0 {
		if _, err = vc.Acquire(p, anyKind); err == nil {
			vc.unpin()
		}
	}
	if err != nil {
		return nil, err
	}
	return vc, nil
}

// OpenVirtualAsync is the engine-context form of OpenVirtual: its eager
// attach runs on the attach machine (AcquireAsync). When the open
// finishes at once — no slot is free, so nothing attaches, or every
// attach step cost nothing, or it failed — it returns the logical
// context (nil on error) with now set and never calls fn. Otherwise it
// returns with now false, and fn is called once, in the event where
// the attach finishes, with what OpenVirtual would have returned.
func (k *Kernel) OpenVirtualAsync(t *Task, label string, kinds []gpu.Kind, fn func(*VContext, error)) (*VContext, bool, error) {
	vc, err := k.newVirtual(t, label, kinds)
	if err != nil || k.muxFree() <= 0 {
		return vc, true, err
	}
	_, now, err := vc.AcquireAsync(anyKind, func(_ *gpu.Channel, err error) {
		if err != nil {
			fn(nil, err)
			return
		}
		vc.unpin()
		fn(vc, nil)
	})
	if !now {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	vc.unpin()
	return vc, true, nil
}

// newVirtual registers a detached logical context for the task.
func (k *Kernel) newVirtual(t *Task, label string, kinds []gpu.Kind) (*VContext, error) {
	if !t.Alive {
		return nil, gpu.ErrContextDead
	}
	if k.mux == nil {
		m := &muxState{vcs: make(map[*gpu.Context]*VContext)}
		m.sysFn = k.muxSyscallDone
		m.switchFn = k.muxSwitchDone
		k.mux = m
		prev := k.dev.CompletionObserver
		k.dev.CompletionObserver = func(r *gpu.Request) {
			if prev != nil {
				prev(r)
			}
			k.muxPump()
		}
	}
	vc := &VContext{k: k, task: t, label: label, kinds: kinds}
	t.vctxs = append(t.vctxs, vc)
	k.mux.stats.Opens++
	return vc, nil
}

// MuxStatus returns a snapshot of the multiplexing counters (zero value
// when the kernel has never multiplexed).
func (k *Kernel) MuxStatus() MuxStats {
	if k.mux == nil {
		return MuxStats{}
	}
	return k.mux.stats
}

// muxFree returns the number of hardware context slots available to the
// mux: pool size minus live contexts minus slots already granted to
// queued waiters.
func (k *Kernel) muxFree() int {
	return k.dev.Config().MaxContexts - k.dev.ContextCount() - k.mux.reserved
}

// Task returns the owning task.
func (vc *VContext) Task() *Task { return vc.task }

// Attached reports whether the logical context currently holds a
// hardware context.
func (vc *VContext) Attached() bool { return vc.hw != nil }

// HW returns the current hardware context (nil while detached).
func (vc *VContext) HW() *gpu.Context { return vc.hw }

// Reattaches counts how many times this logical context was re-attached
// after an eviction.
func (vc *VContext) Reattaches() int64 { return vc.reattaches }

// ChannelIf returns the attached hardware channel of the given kind
// without attaching or pinning; nil while detached.
func (vc *VContext) ChannelIf(kind gpu.Kind) *gpu.Channel {
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch
		}
	}
	return nil
}

// syncAcquire is one blocking acquire parked on the attach machine:
// the caller and the machine's result. Records are pooled per kernel
// with done bound once, so a blocking acquire allocates nothing.
type syncAcquire struct {
	p    *sim.Proc
	ch   *gpu.Channel
	err  error
	done func(*gpu.Channel, error)
}

// finish is the machine's continuation for a parked blocking caller:
// record the result and resume the caller inline. A caller killed
// while parked is not resumed (Proc.Resume) and its record is simply
// dropped.
func (s *syncAcquire) finish(ch *gpu.Channel, err error) {
	s.ch, s.err = ch, err
	s.p.Resume()
}

// Acquire returns the hardware channel of the given kind, attaching the
// logical context first if necessary (which may block p waiting for a
// slot). The context is pinned — ineligible for eviction — until the
// matching Release. Returns an error only when the task is dead or a
// protection policy denies the attach.
//
// It is the blocking wrapper of AcquireAsync: when the attach cannot
// finish at once, p parks while the machine runs and is resumed inline
// (sim.Proc.Resume) in the event where the machine finishes, so it
// continues at the event position a process sleeping through every
// attach step would have reached.
func (vc *VContext) Acquire(p *sim.Proc, kind gpu.Kind) (*gpu.Channel, error) {
	m := vc.k.mux
	var s *syncAcquire
	if n := len(m.syncFree); n > 0 {
		s = m.syncFree[n-1]
		m.syncFree = m.syncFree[:n-1]
	} else {
		s = &syncAcquire{}
		s.done = s.finish
	}
	ch, now, err := vc.AcquireAsync(kind, s.done)
	if !now {
		s.p = p
		p.Park()
		ch, err = s.ch, s.err
		*s = syncAcquire{done: s.done}
	}
	m.syncFree = append(m.syncFree, s)
	return ch, err
}

// AcquireAsync is the engine-context form of Acquire: it pins the
// logical context and yields the hardware channel of the given kind,
// or the error Acquire would return. When the acquire finishes at once
// — the context is attached or dead, or every attach step cost nothing
// — AcquireAsync returns the result with now set and never calls fn.
// Otherwise the attach machine runs (or, if another acquirer's attach
// is in flight, waits on the task gate for it), AcquireAsync returns
// with now false, and fn is called exactly once, in the event where the
// attach finishes.
//
// The machine takes the blocking attach's steps at the same event
// positions: the free-slot check and LRU eviction, the FIFO
// attach-queue wait (a Gate.Notify continuation on the task gate), the
// context and channel setup syscalls (bodies run SyscallTrap +
// SyscallDriverWork after issue), the retry when a raw client took the
// slot during the context syscall, the rollback of a partial attach,
// and a reattach's ContextSwitch. Only joining another acquirer's
// in-flight attach allocates — a continuation per wait — and no stack
// in this repository does that.
func (vc *VContext) AcquireAsync(kind gpu.Kind, fn func(*gpu.Channel, error)) (ch *gpu.Channel, now bool, err error) {
	if vc.closed || !vc.task.Alive {
		return nil, true, gpu.ErrContextDead
	}
	if vc.hw != nil {
		vc.use()
		ch, err = vc.grab(kind)
		return ch, true, err
	}
	if vc.attaching {
		var wake func()
		wake = func() {
			if vc.attaching && !vc.closed && vc.task.Alive {
				vc.task.gate.Notify(wake)
				return
			}
			if ch, now, err := vc.AcquireAsync(kind, fn); now {
				fn(ch, err)
			}
		}
		vc.task.gate.Notify(wake)
		return nil, false, nil
	}
	// acqFn stays nil while the machine's first steps run on this call's
	// stack: an attach whose steps all cost nothing finishes before
	// AcquireAsync returns and leaves its result here instead of
	// calling fn.
	vc.attaching = true
	vc.acqKind, vc.acqFn = kind, nil
	vc.attachTry()
	if vc.attaching {
		vc.acqFn = fn
		return nil, false, nil
	}
	if err, vc.acqErr = vc.acqErr, nil; err != nil {
		return nil, true, err
	}
	ch, err = vc.grab(kind)
	return ch, true, err
}

// use pins the context and stamps it most recently used.
func (vc *VContext) use() {
	m := vc.k.mux
	vc.pins++
	m.clock++
	vc.lastUsed = m.clock
}

// grab returns the pinned context's channel of the given kind. Without
// one — a context whose task died mid-attach has none — it gives the
// pin back and reports the context dead.
func (vc *VContext) grab(kind gpu.Kind) (*gpu.Channel, error) {
	if kind == anyKind {
		return nil, nil
	}
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch, nil
		}
	}
	vc.unpin()
	return nil, gpu.ErrContextDead
}

// attachTry is the top of the attach loop: claim a free slot (evicting
// the LRU idle context if need be) and issue the context syscall, or
// queue for a slot.
func (vc *VContext) attachTry() {
	k := vc.k
	m := k.mux
	if vc.closed || !vc.task.Alive {
		vc.attachDone(gpu.ErrContextDead)
		return
	}
	if k.muxFree() <= 0 && !k.muxEvictLRU() {
		vc.wait.waiting = true
		m.waiters = append(m.waiters, vc)
		m.stats.AttachWaits++
		if vc.wait.wakeFn == nil {
			vc.wait.wakeFn = vc.waitWake
		}
		vc.task.gate.Notify(vc.wait.wakeFn)
		return
	}
	vc.syscall()
}

// waitWake runs when the task gate is broadcast while the context waits
// for a slot: a grant (or the task's death) ends the wait, anything
// else waits on.
func (vc *VContext) waitWake() {
	k := vc.k
	if !vc.wait.granted && !vc.closed && vc.task.Alive {
		vc.task.gate.Notify(vc.wait.wakeFn)
		return
	}
	vc.wait.waiting = false
	if !vc.wait.granted {
		k.muxRemoveWaiter(vc)
		vc.attachDone(gpu.ErrContextDead)
		return
	}
	// A grant outlives its task only as a revoked one (muxTaskExited
	// takes the slot back), so a granted waiter is alive.
	vc.wait.granted = false
	k.mux.reserved--
	vc.syscall()
}

// syscall issues the attach's next setup syscall — the context while
// none is held, then one channel per kind — whose body runs after the
// syscall's trap and driver work (at once if those cost nothing, as a
// process's zero sleep returns at once).
func (vc *VContext) syscall() {
	k := vc.k
	if d := k.syscallCost(); d > 0 {
		k.mux.sysQ = append(k.mux.sysQ, vc)
		k.eng.After(d, k.mux.sysFn)
		return
	}
	vc.syscallDone()
}

// muxSyscallDone is the bound setup-syscall step: the oldest syscall in
// flight has elapsed.
func (k *Kernel) muxSyscallDone() { popVC(&k.mux.sysQ).syscallDone() }

// muxSwitchDone is the bound context-switch step.
func (k *Kernel) muxSwitchDone() { popVC(&k.mux.switchQ).attachDone(nil) }

// popVC removes and returns the head of a step queue, keeping its
// backing array.
func popVC(q *[]*VContext) *VContext {
	s := *q
	vc := s[0]
	n := copy(s, s[1:])
	s[n] = nil
	*q = s[:n]
	return vc
}

// syscallDone runs the body of the setup syscall that just elapsed.
func (vc *VContext) syscallDone() {
	k := vc.k
	if vc.newCtx == nil {
		ctx, err := k.createContext(vc.task, vc.label)
		if err == gpu.ErrNoContexts {
			// A non-multiplexed client took the slot during the syscall
			// sleep; go around again.
			vc.attachTry()
			return
		}
		if err != nil {
			k.muxPump()
			vc.attachDone(err)
			return
		}
		vc.newCtx = ctx
		vc.newChans = vc.chans[:0]
	} else {
		cs, err := k.createChannel(vc.task, vc.newCtx, vc.kinds[len(vc.newChans)])
		if err != nil {
			vc.rollback()
			k.muxPump()
			vc.attachDone(err)
			return
		}
		vc.newChans = append(vc.newChans, cs)
	}
	if len(vc.newChans) < len(vc.kinds) {
		vc.syscall()
		return
	}
	vc.install()
}

// rollback undoes a partial attach, releasing its slot.
func (vc *VContext) rollback() {
	k := vc.k
	for i, cs := range vc.newChans {
		delete(k.byPage, cs.Ch.Reg)
		vc.task.removeChannel(cs)
		vc.newChans[i] = nil
	}
	ctx := vc.newCtx
	vc.newCtx, vc.newChans = nil, nil
	vc.task.removeContext(ctx)
	if !ctx.Dead() {
		if err := k.dev.ReleaseContext(ctx); err != nil {
			panic("neon: mux rollback of busy context: " + err.Error())
		}
	}
}

// install binds the built hardware state to the logical context and
// pins it; a reattach then pays the paper's ContextSwitch.
func (vc *VContext) install() {
	m := vc.k.mux
	ctx := vc.newCtx
	vc.hw, vc.chans = ctx, vc.newChans
	vc.newCtx, vc.newChans = nil, nil
	m.vcs[ctx] = vc
	m.attached = append(m.attached, vc)
	if n := len(m.attached); n > m.stats.MaxAttached {
		m.stats.MaxAttached = n
	}
	m.stats.Attaches++
	vc.use()
	if vc.everAttached {
		vc.reattaches++
		m.stats.Reattaches++
		if d := vc.k.costs.ContextSwitch; d > 0 {
			m.switchQ = append(m.switchQ, vc)
			vc.k.eng.After(d, m.switchFn)
			return
		}
	}
	vc.everAttached = true
	vc.attachDone(nil)
}

// attachDone ends the attach: concurrent users waiting on the task gate
// re-check, and the acquirer gets its channel (or the error).
func (vc *VContext) attachDone(err error) {
	vc.attaching = false
	vc.task.gate.Broadcast()
	fn := vc.acqFn
	if fn == nil {
		vc.acqErr = err // finished inside AcquireAsync, which returns it
		return
	}
	vc.acqFn = nil
	if err != nil {
		fn(nil, err)
		return
	}
	fn(vc.grab(vc.acqKind))
}

// AcquireIf is the non-blocking form of Acquire for the engine-driven
// submission fast path: if the logical context is currently attached and
// usable it pins it — bumping the LRU clock exactly as Acquire would —
// and returns the hardware channel of the given kind. It never attaches,
// never waits, and consumes no process context; it reports false when
// the context is detached, mid-attach, or dead, and callers fall back to
// AcquireAsync (or the blocking Acquire).
func (vc *VContext) AcquireIf(kind gpu.Kind) (*gpu.Channel, bool) {
	if vc.closed || !vc.task.Alive || vc.hw == nil || vc.attaching {
		return nil, false
	}
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			vc.use()
			return cs.Ch, true
		}
	}
	return nil, false
}

// Peek is the side-effect-free form of AcquireIf: it reports whether the
// logical context is currently attached and usable and returns the
// hardware channel of the given kind, without pinning and — critically —
// without bumping the LRU clock. Refusal checks (is the fast path even
// available? is the register engaged?) must use Peek, not AcquireIf:
// a submission that ends up on the blocking path must charge exactly one
// LRU use, the Acquire it retries with, or the mux's eviction order
// drifts from the blocking-only timeline. The channel pointer is only
// valid within the current engine instant.
func (vc *VContext) Peek(kind gpu.Kind) (*gpu.Channel, bool) {
	if vc.closed || !vc.task.Alive || vc.hw == nil || vc.attaching {
		return nil, false
	}
	for _, cs := range vc.chans {
		if cs.Ch.Kind == kind {
			return cs.Ch, true
		}
	}
	return nil, false
}

// Release unpins the logical context after an Acquire. Channel pointers
// obtained from Acquire must not be stored across a Release: the next
// attach may produce fresh ones.
func (vc *VContext) Release() { vc.unpin() }

func (vc *VContext) unpin() {
	if vc.pins > 0 {
		vc.pins--
	}
	if vc.pins == 0 && len(vc.k.mux.waiters) > 0 {
		vc.k.muxPump()
	}
}

// evictable reports whether the attached logical context can be
// detached right now: unpinned, every channel quiescent, none sampling.
func (vc *VContext) evictable() bool {
	if vc.hw == nil || vc.pins > 0 || vc.attaching {
		return false
	}
	for _, cs := range vc.chans {
		if cs.sampling || !cs.Ch.Idle() {
			return false
		}
	}
	return true
}

// muxEvictLRU detaches the least-recently-used evictable logical
// context, freeing its hardware slot. Returns false when nothing is
// evictable.
func (k *Kernel) muxEvictLRU() bool {
	m := k.mux
	var victim *VContext
	for _, vc := range m.attached {
		if !vc.evictable() {
			continue
		}
		if victim == nil || vc.lastUsed < victim.lastUsed {
			victim = vc
		}
	}
	if victim == nil {
		return false
	}
	k.muxDetach(victim)
	return true
}

// muxDetach gracefully releases an idle logical context's hardware
// state. The task keeps its identity, accounting history, and device
// memory; only the context and channels go back to the pool.
func (k *Kernel) muxDetach(vc *VContext) {
	m := k.mux
	for _, cs := range vc.chans {
		vc.task.retiredDone += cs.Ch.Completions
		delete(k.byPage, cs.Ch.Reg)
		vc.task.removeChannel(cs)
	}
	vc.task.removeContext(vc.hw)
	if err := k.dev.ReleaseContext(vc.hw); err != nil {
		panic("neon: mux detach of busy context: " + err.Error())
	}
	delete(m.vcs, vc.hw)
	for i, x := range m.attached {
		if x == vc {
			m.attached = append(m.attached[:i], m.attached[i+1:]...)
			break
		}
	}
	vc.hw = nil
	for i := range vc.chans {
		vc.chans[i] = nil
	}
	vc.chans = vc.chans[:0] // the next attach rebuilds into the same array
	m.stats.Evictions++
}

// muxPump grants freed hardware slots to queued attach waiters in FIFO
// order, evicting idle LRU contexts as needed. Called after request
// completions, task exits, and unpins; a kernel with no waiters returns
// immediately.
func (k *Kernel) muxPump() {
	m := k.mux
	for len(m.waiters) > 0 {
		vc := m.waiters[0]
		if vc.closed || !vc.task.Alive {
			m.waiters = m.waiters[1:]
			continue
		}
		if k.muxFree() <= 0 && !k.muxEvictLRU() {
			return
		}
		m.waiters = m.waiters[1:]
		m.reserved++
		vc.wait.granted = true
		vc.task.gate.Broadcast()
	}
}

// muxRemoveWaiter drops a cancelled waiter from the queue, if present.
func (k *Kernel) muxRemoveWaiter(vc *VContext) {
	m := k.mux
	for i, x := range m.waiters {
		if x == vc {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return
		}
	}
}

// muxTaskExited unlinks a dead task's logical contexts (their hardware
// contexts were already destroyed by the device exit protocol) and
// recycles any slots or grants the task held.
func (k *Kernel) muxTaskExited(t *Task) {
	m := k.mux
	if m == nil {
		return
	}
	for _, vc := range t.vctxs {
		vc.closed = true
		if vc.wait.waiting {
			if vc.wait.granted {
				// Granted but never consumed; the slot goes back.
				m.reserved--
				vc.wait.granted = false
			} else {
				k.muxRemoveWaiter(vc)
			}
			vc.wait.waiting = false
		}
		if vc.hw != nil {
			delete(m.vcs, vc.hw)
			for i, x := range m.attached {
				if x == vc {
					m.attached = append(m.attached[:i], m.attached[i+1:]...)
					break
				}
			}
			vc.hw = nil
			vc.chans = nil
		}
	}
	t.vctxs = nil
	k.muxPump()
}
