package fleet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Tenant is one fleet resource principal: it runs its spec's round loop
// forever, asking the placement policy for a device before every round.
// The first touch of a device pays the usual context/channel setup
// syscalls; thereafter the tenant's warm working set lives on whichever
// device ran its previous round, and a round placed anywhere else first
// pays WorkingSet of device time to reconstruct it (data migration plus
// re-initialization kernels occupying the destination engine) — the
// locality cost sticky placement exists to avoid.
type Tenant struct {
	Spec workload.TenantSpec

	fleet   *Fleet
	last    *Node
	clients map[*Node]*userlib.Client
	tasks   map[*Node]*neon.Task
	rng     *sim.RNG
	busy0   sim.Duration
	work0   core.Work

	// allocWeight is the fair-share weight the round-based allocator
	// last applied (0 = no allocator, use the spec weight), and
	// hintClasses the class speeds the active policy wants this
	// tenant's work steered toward (empty = no preference).
	allocWeight float64
	hintClasses []float64

	// Round-machine state (DESIGN.md §14), mirroring workload.App:
	// phase/idx drive the round, pending/fencing the frame fence, and
	// awaiting the submit-and-wait request whose completion resumes it.
	eng        *sim.Engine
	reqs       []workload.Req
	coldKind   gpu.Kind
	node       *Node
	client     *userlib.Client
	phase      int
	idx        int
	pending    int
	fencing    bool
	awaiting   *gpu.Request
	retire     []*gpu.Request
	roundStart sim.Time
	stepFn     func()
	resumeFn   func()
	openedFn   func(*userlib.Client, error)
	firedFn    func(*gpu.Request)
	waitedFn   func(*gpu.Request)
	fireDone   func(*gpu.Request)
	blockDone  func(*gpu.Request)

	// Rounds and RoundTime accumulate since the last ResetStats.
	Rounds    int64
	RoundTime sim.Duration
	// Migrations counts rounds that moved off the previous device;
	// ColdTime is the device time those moves spent rebuilding state.
	Migrations int64
	ColdTime   sim.Duration
	// PerDevice counts rounds completed on each node index.
	PerDevice []int64

	setupErr error
}

// NewTenant registers a tenant with the fleet without starting the
// closed-loop round loop. The open-loop serving layer (internal/traffic)
// uses this: it drives the tenant's requests from an arrival process
// instead, but still wants fleet placement, per-node depth accounting,
// and the tenant's lazily opened per-device clients.
//
// Invalid contract terms (negative or non-finite weight, unknown tier)
// panic, mirroring workload.FleetPopulation's convention: tenant specs
// are experiment-grid configuration, not user input, and a bad weight
// silently clamped to 1 by the ledgers would corrupt every fairness
// table downstream. The serving layer validates with a proper error
// before reaching here.
func (f *Fleet) NewTenant(spec workload.TenantSpec) *Tenant {
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("fleet: %v", err))
	}
	t := &Tenant{
		Spec:      spec,
		fleet:     f,
		clients:   make(map[*Node]*userlib.Client),
		tasks:     make(map[*Node]*neon.Task),
		rng:       sim.NewRNG(sim.StreamSeed(f.seed, "tenant", len(f.tenants))),
		PerDevice: make([]int64, len(f.nodes)),
	}
	f.tenants = append(f.tenants, t)
	return t
}

// Launch starts a tenant's round loop on the fleet: its first step
// runs one event later, in the current instant.
func (f *Fleet) Launch(spec workload.TenantSpec) *Tenant {
	t := f.NewTenant(spec)
	t.eng = f.eng
	t.reqs = spec.Requests()
	t.coldKind = spec.ChannelKinds()[0]
	t.stepFn = t.step
	t.resumeFn = t.resume
	t.openedFn = t.opened
	t.firedFn = func(r *gpu.Request) {
		if r == nil {
			t.pending--
		}
		t.step()
	}
	t.waitedFn = func(r *gpu.Request) {
		if r == nil {
			t.advance()
			t.step()
		}
	}
	t.fireDone = t.oneDone
	t.blockDone = func(r *gpu.Request) {
		t.awaiting = r
		t.eng.After(0, t.resumeFn)
	}
	t.phase = tphPlace
	f.eng.After(0, t.stepFn)
	return t
}

// SetupError returns any context/channel allocation failure.
func (t *Tenant) SetupError() error { return t.setupErr }

// AvgRound returns the mean round time since the last ResetStats.
func (t *Tenant) AvgRound() sim.Duration {
	if t.Rounds == 0 {
		return 0
	}
	return t.RoundTime / sim.Duration(t.Rounds)
}

// ServiceTime returns the raw device time the tenant has received
// across the fleet since the last ResetStats — including any
// working-set reconstruction, which is capacity the tenant consumed.
// On a heterogeneous fleet raw device time overstates service received
// on slow devices; compare tenants with NormalizedWork instead.
func (t *Tenant) ServiceTime() sim.Duration {
	var b sim.Duration
	for _, task := range t.tasks {
		b += task.BusyTime()
	}
	return b - t.busy0
}

// NormalizedWork returns the class-normalized service the tenant has
// received across the fleet since the last ResetStats: per-device busy
// time scaled by each device's class speed, summed. This is the unit
// the fleet board accounts fairness in, so it is the unit per-tenant
// shares must be compared in on a mixed fleet. (The sum is commutative,
// so map iteration order does not affect it.)
func (t *Tenant) NormalizedWork() core.Work {
	var w core.Work
	for n, task := range t.tasks {
		w += core.WorkFor(task.BusyTime(), n.Speed())
	}
	return w - t.work0
}

// WeightedWork returns the tenant's normalized work divided by its
// effective fair-share weight — the unit weighted fair queueing
// equalizes across tenants. Under contention every backlogged tenant's
// WeightedWork should advance at the same rate no matter how its weight
// (and hence its raw share) differs; the tiers experiment's fairness
// columns are computed over it.
func (t *Tenant) WeightedWork() core.Work {
	return core.PerWeight(t.NormalizedWork(), t.EffectiveWeight())
}

// EffectiveWeight returns the fair-share weight the mechanism charges
// the tenant at: the weight the round-based allocator last applied when
// an allocation policy is active, otherwise the spec's own weight.
func (t *Tenant) EffectiveWeight() float64 {
	if t.allocWeight > 0 {
		return t.allocWeight
	}
	return t.Spec.ShareWeight()
}

// setAllocWeight installs an allocator-computed weight: every live
// kernel task re-weights immediately (the DFQ ledgers read Task.Weight
// at each charging step, so no ledger state needs rewriting — see the
// dynamic-weight contract in core/dfq.go), and tasks opened later
// inherit it at creation.
func (t *Tenant) setAllocWeight(w float64) {
	t.allocWeight = w
	for _, task := range t.tasks {
		task.Weight = t.EffectiveWeight()
	}
}

// ResetStats clears round statistics and re-baselines service time.
func (t *Tenant) ResetStats() {
	t.busy0 += t.ServiceTime()
	t.work0 += t.NormalizedWork()
	t.Rounds = 0
	t.RoundTime = 0
	t.Migrations = 0
	t.ColdTime = 0
	t.PerDevice = make([]int64, len(t.fleet.nodes))
}

// ClientAsync lazily opens the tenant's context and channels on the
// node, paying the setup syscalls on first touch: a client that is
// ready at once — already open, or opened without waiting on an attach
// step — is returned with now set and fn is never called; otherwise fn
// receives the client (or the error) in the event where its eager
// attach finishes (userlib.OpenVirtualAsync).
func (t *Tenant) ClientAsync(n *Node, fn func(*userlib.Client, error)) (*userlib.Client, bool, error) {
	if c, ok := t.clients[n]; ok {
		c, err := live(c)
		return c, true, err
	}
	task := t.newTask(n)
	c, now, err := userlib.OpenVirtualAsync(n.Kernel, task, t.Spec.Name, t.Spec.ChannelKinds(), func(c *userlib.Client, err error) {
		fn(t.adopt(n, task, c, err))
	})
	if !now {
		return nil, false, nil
	}
	c, err = t.adopt(n, task, c, err)
	return c, true, err
}

// Task returns the tenant's kernel task on the node, nil before the
// first ClientAsync call there.
func (t *Tenant) Task(n *Node) *neon.Task { return t.tasks[n] }

// live returns an open client, unless its task was killed on the node:
// the logical handle is then dead, and round loops must stop rather
// than spin on nil submissions.
func live(c *userlib.Client) (*userlib.Client, error) {
	if !c.Task.Alive {
		return nil, gpu.ErrContextDead
	}
	return c, nil
}

// newTask admits the tenant's kernel task on a node.
func (t *Tenant) newTask(n *Node) *neon.Task {
	task := n.Kernel.NewTask(t.Spec.Name)
	task.Weight = t.EffectiveWeight()
	return task
}

// adopt records a client opened on a node (nothing, when the open
// failed) and passes the open's result through. The client is a
// logical (virtual-context) handle: the node's kernel multiplexes the
// device's fixed hardware-context pool underneath, so tenant
// populations are not capped by gpu.Config.MaxContexts.
func (t *Tenant) adopt(n *Node, task *neon.Task, c *userlib.Client, err error) (*userlib.Client, error) {
	if err != nil {
		return nil, err
	}
	t.tasks[n] = task
	t.clients[n] = c
	return c, nil
}

// Tenant round-machine phases, mirroring workload.App's machine: the
// placed round loop is an engine-driven state machine over
// userlib.Client.Submit and fleet.Tenant.ClientAsync, so no step of it
// runs a process.
const (
	tphPlace  = iota // round start: place, open client, cold rebuild
	tphCold          // cold-rebuild request in flight
	tphThink         // jittered CPU think timer in flight
	tphSubmit        // submitting reqs[idx:]
	tphFence         // waiting for pending to reach zero
	tphOff           // off-period timer in flight
)

// oneDone is the completion continuation of fire-and-forget requests.
func (t *Tenant) oneDone(r *gpu.Request) {
	t.pending--
	if !r.Aborted {
		t.retire = append(t.retire, r)
	}
	if t.fencing && t.pending == 0 {
		t.eng.After(0, t.stepFn)
	}
}

// resume continues the machine after a submit-and-wait request's
// completion, recycling the request.
func (t *Tenant) resume() {
	t.awaiting.Release()
	t.awaiting = nil
	t.advance()
	t.step()
}

// opened continues the placement step with a client whose eager
// attach had to wait.
func (t *Tenant) opened(c *userlib.Client, err error) {
	if t.placed(c, err) {
		t.step()
	}
}

// placed finishes the placement step with the node's client, or ends
// the tenant on a setup failure (a dead handle included), and reports
// whether the machine goes on. A cold round — placed away from the previous
// device — first rebuilds the warm state: the reconstruction occupies
// the destination engine, so migration costs the fleet real capacity.
func (t *Tenant) placed(c *userlib.Client, err error) bool {
	if err != nil {
		t.setupErr = err
		t.fleet.roundDone(t.node)
		return false
	}
	t.client = c
	cold := t.last != nil && t.last != t.node && t.Spec.WorkingSet > 0
	t.last = t.node
	t.phase = tphThink
	if cold {
		t.Migrations++
		t.ColdTime += t.Spec.WorkingSet
		t.phase = tphCold
	}
	return true
}

// step advances the round machine in engine context.
func (t *Tenant) step() {
	for {
		switch t.phase {
		case tphPlace:
			t.roundStart = t.eng.Now()
			t.node = t.fleet.Place(t)
			c, now, err := t.ClientAsync(t.node, t.openedFn)
			if !now || !t.placed(c, err) {
				return
			}
		case tphCold:
			if !t.submitBlocking(t.coldKind, t.Spec.WorkingSet) {
				return
			}
		case tphThink:
			t.phase = tphSubmit
			t.idx = 0
			t.eng.After(t.rng.Jitter(t.Spec.CPU, t.Spec.Jitter), t.stepFn)
			return
		case tphSubmit:
			if t.idx == len(t.reqs) {
				t.phase = tphFence
				continue
			}
			rq := t.reqs[t.idx]
			if !rq.Trivial && !t.Spec.Pipelined {
				if !t.submitBlocking(rq.Kind, rq.Size) {
					return
				}
				continue
			}
			t.idx++
			t.pending++
			if _, now, err := t.client.Submit(rq.Kind, rq.Size, t.fireDone, t.firedFn); err != nil {
				t.pending--
			} else if !now {
				return
			}
		case tphFence:
			if t.pending > 0 {
				t.fencing = true
				return
			}
			t.fencing = false
			for i, r := range t.retire {
				r.Release()
				t.retire[i] = nil
			}
			t.retire = t.retire[:0]
			t.fleet.roundDone(t.node)
			if off := t.Spec.OffTime(); off > 0 {
				t.phase = tphOff
				t.eng.After(off, t.stepFn)
				return
			}
			t.endRound()
		case tphOff:
			t.endRound()
		}
	}
}

// submitBlocking issues one submit-and-wait request for the current
// phase and reports whether the machine goes on at once; otherwise the
// request's completion resumes it. A submission that stages nothing —
// the task died on the node — advances, as a blocking submission
// returning nil did: the round runs out, and the next placement there
// finds the dead handle.
func (t *Tenant) submitBlocking(kind gpu.Kind, size sim.Duration) bool {
	if _, _, err := t.client.Submit(kind, size, t.blockDone, t.waitedFn); err != nil {
		t.advance()
		return true
	}
	return false
}

// advance moves past the submit-and-wait request that just finished:
// the cold rebuild yields to the think phase, a round request to the
// next request in the sequence.
func (t *Tenant) advance() {
	if t.phase == tphCold {
		t.phase = tphThink
	} else {
		t.idx++
	}
}

// endRound accounts the finished round; the step loop then re-enters
// tphPlace in the same turn, as a blocking loop began its next round
// without yielding.
func (t *Tenant) endRound() {
	now := t.eng.Now()
	t.Rounds++
	t.PerDevice[t.node.Index]++
	t.RoundTime += now.Sub(t.roundStart)
	t.phase = tphPlace
}
