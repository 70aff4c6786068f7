// Package neon models the paper's prototype kernel module of the same
// name: the OS-resident machinery that makes disengaged scheduling
// possible without cooperation from the (black-box) GPU stack.
//
// It provides, against the simulated MMIO/GPU substrate, the same three
// functional components as the real module (paper Section 4):
//
//   - an initialization phase that learns about every channel when it is
//     created (channel setup is a syscall, so it cannot be missed even
//     while disengaged);
//   - a page-fault handling mechanism that catches channel-register
//     writes while a channel is engaged, charges the per-fault buffer
//     scanning cost, and holds the faulting store until the attached
//     scheduler lets the task run, which may delay it arbitrarily;
//   - a polling-thread service that detects request completion by reading
//     device-written reference counters at a configurable granularity —
//     the granularity is the source of draining idleness in the paper's
//     overhead measurements.
//
// On top of these it offers the primitives schedulers are built from:
// engage/disengage, drain barriers with overuse accounting and over-long
// request killing, sampling runs that measure per-request service times,
// and protected channel allocation (Section 6.3).
package neon

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/gpu"
	"repro/internal/mmio"
	"repro/internal/sim"
)

// ErrChannelQuota is returned when the channel-allocation protection
// policy denies a context or channel request.
var ErrChannelQuota = errors.New("neon: channel allocation quota exceeded")

// Scheduler is the event-based scheduling interface the kernel exposes.
// Implementations live in package core.
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Start is called once, after the kernel is constructed. The
	// scheduler may spawn control processes and install initial
	// protection state.
	Start(k *Kernel)
	// TaskAdmitted is called when a task first becomes known.
	TaskAdmitted(t *Task)
	// TaskExited is called when a task exits or is killed.
	TaskExited(t *Task)
	// ChannelActivated is called when a channel completes its
	// initialization phase. The scheduler decides its protection state.
	ChannelActivated(cs *ChannelState)
	// MayRun reports whether the task's intercepted submissions may
	// proceed to the device now. The kernel holds every faulting store
	// of a live task until it does, re-asking each time the task's gate
	// is broadcast (that is how requests are delayed), so a scheduler
	// that changes the answer broadcasts the gate. It must not block or
	// change scheduler state.
	MayRun(t *Task) bool
}

// ChannelState is the kernel's per-channel bookkeeping: the channel
// identity plus what interception has learned about it.
type ChannelState struct {
	Ch   *gpu.Channel
	Task *Task

	// Active is set when the initialization state machine has identified
	// the channel's three VMAs and can intercept it.
	Active bool

	// Faults counts intercepted submissions on this channel.
	Faults int64

	sampling   bool
	watchedRef uint64
	// drainTarget is the reference value the current drain waits for,
	// valid while drainEpoch names that drain (see Kernel.Drain).
	drainTarget uint64
	drainEpoch  uint64
}

// ChannelPolicy is the Section 6.3 protected-allocation policy: no task
// may hold more than MaxChannelsPerTask channels, and no more than
// MaxTasks tasks may hold channels at once.
type ChannelPolicy struct {
	MaxChannelsPerTask int
	MaxTasks           int
}

// Kernel is the NEON module: it owns tasks, channel state, the fault
// handler and the polling service, and drives the attached scheduler.
type Kernel struct {
	eng   *sim.Engine
	dev   *gpu.Device
	costs cost.Model
	sched Scheduler

	tasks      map[gpu.TaskID]*Task
	taskOrder  []*Task
	nextTaskID gpu.TaskID
	byPage     map[*mmio.Page]*ChannelState

	// mux is the virtual-context multiplexing front-end (mux.go), nil
	// until the first OpenVirtual call.
	mux *muxState

	// Label identifies this kernel instance in multi-device fleets; it
	// defaults to the device's configured name and is what per-device
	// schedulers report to fleet-wide reconciliation.
	Label string

	// Policy, when non-nil, enables protected channel allocation.
	Policy *ChannelPolicy

	// RequestRunLimit is the documented maximum time any request may run;
	// tasks exceeding it during a drain are killed. Zero disables killing.
	RequestRunLimit sim.Duration

	// Counters for experiments.
	TotalFaults int64
	Kills       int64

	// Drain state: the epoch of the latest drain (stamped on the
	// channels and tasks it touches), whether one is in flight, and
	// its reused working set.
	drainEpoch uint64
	draining   bool
	drainBuf   []*Task

	// faults is the fault handler installed on every channel page the
	// kernel creates; it pools the fault records.
	faults mmio.FaultHandler
}

// NewKernel attaches a kernel to the device and starts the scheduler.
func NewKernel(dev *gpu.Device, sched Scheduler) *Kernel {
	k := &Kernel{
		eng:    dev.Engine(),
		dev:    dev,
		costs:  dev.Costs(),
		sched:  sched,
		tasks:  make(map[gpu.TaskID]*Task),
		byPage: make(map[*mmio.Page]*ChannelState),
		Label:  dev.Name(),
	}
	k.faults.Handle = k.onFault
	sched.Start(k)
	return k
}

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Device returns the managed device.
func (k *Kernel) Device() *gpu.Device { return k.dev }

// Costs returns the platform latency model.
func (k *Kernel) Costs() cost.Model { return k.costs }

// Scheduler returns the attached scheduling policy.
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// Tasks returns live tasks in admission order, in a new slice.
func (k *Kernel) Tasks() []*Task {
	return k.AppendTasks(make([]*Task, 0, len(k.taskOrder)))
}

// AppendTasks appends the live tasks, in admission order, to dst and
// returns the extended slice. A scheduler that walks the population
// every episode passes a reused buffer, so the walk allocates nothing
// once the buffer has grown.
func (k *Kernel) AppendTasks(dst []*Task) []*Task {
	for _, t := range k.taskOrder {
		if t.Alive {
			dst = append(dst, t)
		}
	}
	return dst
}

// NewTask admits a new resource principal (an OS process).
func (k *Kernel) NewTask(name string) *Task {
	t := &Task{
		ID:     k.nextTaskID,
		Name:   name,
		Alive:  true,
		kernel: k,
		gate:   k.eng.NewGate("task-" + name),
	}
	k.nextTaskID++
	k.tasks[t.ID] = t
	k.taskOrder = append(k.taskOrder, t)
	k.sched.TaskAdmitted(t)
	return t
}

// CreateContext is the context-setup syscall. It pays the trap plus
// driver-work cost and applies the protection policy.
func (k *Kernel) CreateContext(p *sim.Proc, t *Task, label string) (*gpu.Context, error) {
	p.Sleep(k.syscallCost())
	return k.createContext(t, label)
}

// syscallCost is what every setup syscall charges before its body runs.
func (k *Kernel) syscallCost() sim.Duration {
	return k.costs.SyscallTrap + k.costs.SyscallDriverWork
}

// createContext is CreateContext's body, run once the syscall's trap
// and driver work have elapsed.
func (k *Kernel) createContext(t *Task, label string) (*gpu.Context, error) {
	if !t.Alive {
		return nil, gpu.ErrContextDead
	}
	if k.Policy != nil && len(t.channels) == 0 && k.holdersCount() >= k.Policy.MaxTasks {
		return nil, ErrChannelQuota
	}
	ctx, err := k.dev.CreateContext(t.ID, label)
	if err != nil {
		return nil, err
	}
	t.contexts = append(t.contexts, ctx)
	return ctx, nil
}

// CreateChannel is the channel-setup syscall: the initialization phase of
// the paper. The kernel identifies the channel's VMAs, installs the fault
// handler, marks the channel active, and lets the scheduler choose its
// initial protection.
func (k *Kernel) CreateChannel(p *sim.Proc, t *Task, ctx *gpu.Context, kind gpu.Kind) (*ChannelState, error) {
	p.Sleep(k.syscallCost())
	return k.createChannel(t, ctx, kind)
}

// createChannel is CreateChannel's body, run once the syscall's trap
// and driver work have elapsed.
func (k *Kernel) createChannel(t *Task, ctx *gpu.Context, kind gpu.Kind) (*ChannelState, error) {
	if !t.Alive {
		return nil, gpu.ErrContextDead
	}
	if k.Policy != nil && len(t.channels) >= k.Policy.MaxChannelsPerTask {
		return nil, ErrChannelQuota
	}
	ch, err := k.dev.CreateChannel(ctx, kind)
	if err != nil {
		return nil, err
	}
	cs := &ChannelState{Ch: ch, Task: t, Active: true}
	t.channels = append(t.channels, cs)
	k.byPage[ch.Reg] = cs
	ch.Reg.SetHandler(&k.faults)
	k.sched.ChannelActivated(cs)
	return cs, nil
}

// holdersCount returns the number of live tasks currently holding
// channels.
func (k *Kernel) holdersCount() int {
	n := 0
	for _, t := range k.taskOrder {
		if t.Alive && len(t.channels) > 0 {
			n++
		}
	}
	return n
}

// onFault is the page-fault handler: every store to an engaged channel
// register lands here once its trap has elapsed. The fault then takes
// the kernel's steps as continuations, at the event positions a
// faulting process would have reached them: the buffer scan
// (FaultScan), registration of sampling watchers, and the scheduler
// wait — a Gate.Notify re-check loop on the task gate, the continuation
// form of Proc.WaitFor — before the store is delivered.
func (k *Kernel) onFault(f *mmio.Fault) {
	cs, ok := k.byPage[f.Page]
	if !ok {
		f.Deliver()
		return
	}
	k.TotalFaults++
	cs.Faults++
	f.State = cs
	// Manipulation cost: scan the channel's buffers to locate the
	// reference counter for this request and map it into kernel space.
	if d := k.costs.FaultScan; d > 0 {
		k.eng.After(d, f.Then(faultScanned))
		return
	}
	faultScanned(f)
}

// faultScanned is the step after the buffer scan. The kernel's steps
// are plain functions of the fault (its channel state leads back to the
// kernel), so no kernel binds a callback for them.
func faultScanned(f *mmio.Fault) {
	if cs := f.State.(*ChannelState); cs.sampling {
		cs.Task.kernel.watchStaged(cs)
	}
	faultWait(f)
}

// faultWait holds the fault until its task may run (or has died, which
// releases every wait on the task).
func faultWait(f *mmio.Fault) {
	t := f.State.(*ChannelState).Task
	if !t.Alive || t.kernel.sched.MayRun(t) {
		f.Deliver()
		return
	}
	t.gate.Notify(f.Then(faultWait))
}

// Engage protects every channel of the task: subsequent submissions
// fault into the kernel.
func (k *Kernel) Engage(t *Task) {
	for _, cs := range t.channels {
		cs.Ch.Reg.SetPresent(false)
	}
}

// Disengage unprotects every channel of the task: submissions go straight
// to the device at direct-access cost.
func (k *Kernel) Disengage(t *Task) {
	for _, cs := range t.channels {
		cs.Ch.Reg.SetPresent(true)
	}
}

// EngageAll engages every live task (a barrier precondition).
func (k *Kernel) EngageAll() {
	for _, t := range k.taskOrder {
		if t.Alive {
			k.Engage(t)
		}
	}
}

// KillTask terminates a task: its processes are unwound, its contexts are
// destroyed through the device exit protocol, and the scheduler is
// informed. reason is recorded for reports.
func (k *Kernel) KillTask(t *Task, reason string) {
	if !t.Alive {
		return
	}
	k.Kills++
	t.exit(fmt.Sprintf("killed: %s", reason))
}

// TaskFor returns the kernel task for a device-level owner ID.
func (k *Kernel) TaskFor(id gpu.TaskID) *Task { return k.tasks[id] }
