// Package traffic is the open-loop request-driven serving layer: the
// bridge from the paper's closed-loop co-runner evaluation to the
// ROADMAP's serving regime — open-loop arrivals, tail-latency
// percentiles, and explicit overload behavior.
//
// A Server owns a device fleet (internal/fleet) and a set of per-tenant
// Streams. Each stream's arrival process (deterministic, Poisson, MMPP
// bursty, diurnal-modulated) generates requests with open-loop
// semantics: arrivals never wait for completions, so offered load is a
// property of the source, not of the system's speed — exactly the
// regime where fair queueing, sticky placement, and throttling
// decisions get stressed. A front-door admission controller sheds
// arrivals when the fleet-wide queue depth exceeds a bound; admitted
// requests are placed per-request by the fleet's placement policy and
// drained by per-(tenant, device) dispatchers. Completion latencies
// (sojourn time: completion minus arrival) are stamped through the
// gpu.Request completion hook into a streaming quantile digest per
// tenant, alongside goodput and shed-rate counters.
package traffic

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/userlib"
	"repro/internal/workload"
)

// Stream is one tenant's open-loop request source: its fleet identity
// (name, request size, working set) and its arrival process.
type Stream struct {
	// Tenant carries the tenant's name, single-request service size
	// (Mix[0].Size), channel kinds, and working set — usually built with
	// workload.OpenLoopTenant.
	Tenant workload.TenantSpec
	// Arrival generates the stream's inter-arrival gaps. The instance is
	// owned by this stream: construct a fresh one per scenario.
	Arrival Arrival
}

// StreamStats is one stream's serving measurement since the last
// ResetStats.
type StreamStats struct {
	// Arrivals counts open-loop arrivals; Shed the ones refused at the
	// front door (a stream belongs to exactly one admission tier, so
	// this is the stream's per-tier shed counter — Admission.TierCounts
	// holds the cross-stream tier aggregates); Completed the ones that
	// finished service; Aborted the ones killed with their context.
	Arrivals  int64
	Shed      int64
	Completed int64
	Aborted   int64
	// Latency is the sojourn-time digest (completion minus arrival,
	// including dispatcher queueing, placement cold time, ring queueing,
	// and service).
	Latency metrics.Digest
	// ColdTime is device time spent rebuilding the tenant's working set
	// after placement moved it across devices.
	ColdTime sim.Duration
	// Flushes counts batched-drain doorbells and Batched the submissions
	// they carried (both zero unless Config.BatchDrain): Batched/Flushes
	// is the mean backlog-collapse factor, and Batched-Flushes the
	// doorbells the batching saved.
	Flushes int64
	Batched int64
}

// GoodputPerSec returns completed requests per second over the window.
func (s *StreamStats) GoodputPerSec(window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(s.Completed) / window.Seconds()
}

// ShedRate returns the stream's shed fraction of arrivals.
func (s *StreamStats) ShedRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Shed) / float64(s.Arrivals)
}

// Config assembles a Server.
type Config struct {
	// Fleet configures the device pool (devices, placement policy,
	// per-device scheduler). The fleet's Seed also feeds stream RNGs.
	Fleet fleet.Config
	// AdmitDepth is the standard tier's fleet queue-depth bound; each
	// stream is admitted against its tenant's tier bound derived from it
	// (best-effort sheds at half this depth, premium at 1.25x — see
	// Admission.Bound). <= 0 disables admission control unless
	// TierDepths is set.
	AdmitDepth int
	// BatchDrain switches the dispatchers' backlog drain to batch
	// staging: a whole queued backlog is staged on the channel in one
	// engine instant and submitted with a single doorbell (one
	// userlib.Batch flush, one device kick) instead of one store — and
	// one DirectWrite of pacing — per request. Requests then reach the
	// device together at now+DirectWrite, so batched drains trade the
	// per-request doorbell timeline for submission cost; the default
	// (off) reproduces the per-request event sequence exactly.
	BatchDrain bool
	// TierDepths overrides the derived per-tier admission bounds.
	TierDepths map[workload.Tier]int
	// Streams is the tenant population, one open-loop source each.
	Streams []Stream
}

// stream is the server's per-stream state.
type stream struct {
	spec  Stream
	ft    *fleet.Tenant
	rng   *sim.RNG
	stats StreamStats
	disp  map[*fleet.Node]*dispatcher
	size  sim.Duration
	kind  gpu.Kind
	tier  workload.Tier

	// genFn is the arrival chain's timer callback, bound once.
	genFn func()
}

// Server drives open-loop request streams through a placed, admitted,
// fair-shared device fleet.
type Server struct {
	eng     *sim.Engine
	fleet   *fleet.Fleet
	adm     Admission
	batch   bool
	streams []*stream

	// Same-tick completion coalescing: completion hooks append to
	// doneBuf and the first append of an instant schedules one flush
	// event at the back of that instant, so N same-tick completions cost
	// one digest/stats delivery pass instead of N callback hops. Only
	// commutative per-stream accounting is deferred; fleet queue-depth
	// release stays inline in the hook because same-tick admission
	// decisions read it.
	doneBuf     []doneRec
	flushQueued bool
	flushFn     func()
}

// doneRec is one completed request awaiting the tick-end stats flush.
type doneRec struct {
	st  *stream
	r   *gpu.Request
	lat sim.Duration
}

// New builds the fleet, registers one tenant per stream, and starts the
// arrival generators. The simulation (engine Run/RunFor) then serves
// traffic until stopped.
//
// Stream tenant specs are validated here with a proper error (the
// serving front door is where user-shaped configuration enters), so a
// malformed weight or tier never reaches the fleet's panic. When the
// fleet runs an allocation policy (Fleet.AllocPolicy), the server
// refreshes its admission tier bounds from the policy's targets after
// every allocator round: tier headroom then follows the policy's
// allocation instead of the hard-coded depth ratios. Policies without
// an opinion (static) leave the derived bounds untouched.
func New(eng *sim.Engine, cfg Config) (*Server, error) {
	for i, spec := range cfg.Streams {
		if err := spec.Tenant.Validate(); err != nil {
			return nil, fmt.Errorf("traffic: stream %d: %w", i, err)
		}
		if err := CheckArrival(spec.Arrival); err != nil {
			return nil, fmt.Errorf("traffic: stream %d (%s): %w", i, spec.Tenant.Name, err)
		}
	}
	f, err := fleet.New(eng, cfg.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{eng: eng, fleet: f, batch: cfg.BatchDrain,
		adm: Admission{MaxDepth: cfg.AdmitDepth, TierDepths: cfg.TierDepths}}
	s.flushFn = s.flushDone
	if pol := f.AllocPolicy(); pol != nil {
		f.OnTargets(func(snap policy.Snapshot, tg policy.Targets) {
			if b := policy.TierBounds(pol, snap, tg, cfg.AdmitDepth); b != nil {
				s.adm.TierDepths = b
			}
		})
	}
	for i, spec := range cfg.Streams {
		st := &stream{
			spec: spec,
			ft:   f.NewTenant(spec.Tenant),
			rng:  sim.NewRNG(sim.StreamSeed(cfg.Fleet.Seed, "traffic", i)),
			disp: make(map[*fleet.Node]*dispatcher),
			size: spec.Tenant.Mix[0].Size,
			kind: spec.Tenant.Mix[0].Kind,
			tier: spec.Tenant.Tier.Normalize(),
		}
		st.genFn = func() {
			s.arrive(st)
			s.generate(st)
		}
		s.streams = append(s.streams, st)
		eng.After(0, func() { s.generate(st) })
	}
	return s, nil
}

// Fleet returns the device pool the server places onto.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// Admission returns the front-door controller (its counters are live).
func (s *Server) Admission() *Admission { return &s.adm }

// Stats returns stream i's measurement, in Config.Streams order.
func (s *Server) Stats(i int) *StreamStats { return &s.streams[i].stats }

// SetupError returns the first stream client setup failure, if any.
func (s *Server) SetupError() error {
	for _, st := range s.streams {
		for _, n := range s.fleet.Nodes() {
			if d := st.disp[n]; d != nil && d.err != nil {
				return d.err
			}
		}
	}
	return nil
}

// ResetStats clears stream, admission, and fleet counters (warmup
// exclusion). In-flight requests stay in flight; their latencies land
// in the new window, as on a live system. Each stream's latency digest
// is cleared in place, keeping its bucket storage, so the window's
// first completions do not regrow it.
func (s *Server) ResetStats() {
	s.adm.ResetStats()
	s.fleet.ResetStats()
	for _, st := range s.streams {
		lat := st.stats.Latency
		lat.Reset()
		st.stats = StreamStats{Latency: lat}
	}
}

// generate draws the stream's next inter-arrival gap and schedules the
// arrival: the open-loop source is a self-rescheduling timer chain, one
// event per arrival (genFn: arrive, then generate), that never waits
// for service. A non-positive gap arrives within the same event, as
// Proc.Sleep returns at once for a non-positive duration.
func (s *Server) generate(st *stream) {
	for {
		gap := st.spec.Arrival.Next(s.eng.Now(), st.rng)
		if gap > 0 {
			s.eng.After(gap, st.genFn)
			return
		}
		s.arrive(st)
	}
}

// arrive handles one arrival at the front door. Admission is decided
// against the arriving tenant's tier bound, so under rising backlog
// best-effort streams shed first and premium streams last.
func (s *Server) arrive(st *stream) {
	st.stats.Arrivals++
	if !s.adm.AdmitTier(st.tier, s.fleet.QueueDepth()) {
		st.stats.Shed++
		return
	}
	n, migrated := s.fleet.PlaceRequest(st.ft)
	d := st.disp[n]
	if d == nil {
		d = newDispatcher(s, st, n)
		st.disp[n] = d
		s.eng.After(0, d.open)
	}
	if d.err != nil {
		// The tenant's client on this node failed to set up; nothing will
		// ever drain here.
		s.fleet.RequestDone(n)
		st.stats.Aborted++
		return
	}
	d.queue = append(d.queue, item{
		arrival: s.eng.Now(),
		cold:    migrated && st.spec.Tenant.WorkingSet > 0,
	})
	d.wake()
}

// item is one admitted request waiting in a dispatcher queue.
type item struct {
	arrival sim.Time
	cold    bool
}

// dispatcher drains one (stream, node) queue: it submits requests in
// arrival order through the tenant's client on that node. Submission
// may wait on the node scheduler's interception (that is how engaged
// schedulers delay tenants), but completion is never waited for — the
// channel FIFO and the completion hook carry the rest.
//
// The dispatcher is an engine-context continuation machine (DESIGN.md
// §14) with no process. It opens the tenant's client on the node as a
// continuation, one event after the placement that created it (where
// a spawned process would first have run), its eager attach on the
// mux's attach machine. Each submission is one userlib.Client.Submit,
// and the drain goes on where its store returns: DirectWrite after a
// direct doorbell, after an attach when the virtual context was
// detached, or where a faulting store is delivered — the client holds
// the context's pin until then (pin-until-delivery). The wake is
// edge-triggered (only the idle-to-backlogged transition schedules the
// drain), and Config.BatchDrain turns a drained backlog into one
// staged batch with a single doorbell.
type dispatcher struct {
	srv    *Server
	st     *stream
	node   *fleet.Node
	queue  []item
	err    error
	client *userlib.Client
	ready  bool // client setup finished; wakes may schedule the drain
	idle   bool // drain stopped on an empty queue

	// The request in flight: cur is the item being submitted, and step
	// what the drain owes it next.
	cur  item
	step drainStep

	// The callbacks, bound once so the hot path allocates nothing:
	// doneFn is the completion hook every request of this (stream,
	// node) pair shares; wakeFn restarts an idle drain; storedFn is the
	// continuation where a submission's store returns.
	doneFn   func(*gpu.Request)
	wakeFn   func()
	storedFn func(*gpu.Request)
}

// drainStep is what the drain owes its current item next.
type drainStep uint8

const (
	stepNext drainStep = iota // take the next queued item
	stepCold                  // submit the item's working-set rebuild
	stepMain                  // submit the item's request
)

func newDispatcher(s *Server, st *stream, n *fleet.Node) *dispatcher {
	d := &dispatcher{srv: s, st: st, node: n}
	d.doneFn = d.onDone
	d.wakeFn = d.drain
	d.storedFn = d.stored
	return d
}

// wake restarts an idle drain at the back of the current instant,
// where a signalled process would run. Only the idle-to-backlogged
// transition schedules anything.
func (d *dispatcher) wake() {
	if d.ready && d.idle {
		d.idle = false
		d.srv.eng.After(0, d.wakeFn)
	}
}

// open opens the tenant's client on the node; anything queued during
// setup is drained as soon as it is ready.
func (d *dispatcher) open() {
	if c, now, err := d.st.ft.ClientAsync(d.node, d.opened); now {
		d.opened(c, err)
	}
}

// opened receives the client (or its setup failure) and starts the
// drain.
func (d *dispatcher) opened(c *userlib.Client, err error) {
	if err != nil {
		d.err = err
		d.drainFailed()
		return
	}
	d.client = c
	d.ready = true
	d.drain()
}

// drain advances the queue until the dispatcher must wait: for an
// arrival (idle), or for a submission's store to return (stored
// resumes).
func (d *dispatcher) drain() {
	for {
		if d.step == stepNext {
			if len(d.queue) == 0 {
				d.idle = true
				return
			}
			if d.srv.batch && d.batchDrain() {
				continue
			}
			d.cur = d.queue[0]
			d.queue = d.queue[1:]
			if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
				// The tenant's context on this node was killed (run-limit or
				// DoS protection): the queued request can never be served here.
				d.srv.fleet.RequestDone(d.node)
				d.st.stats.Aborted++
				continue
			}
			d.step = stepMain
			if d.cur.cold {
				// Rebuild the warm working set ahead of the request, on the
				// same channel: FIFO ordering makes the reconstruction
				// complete first.
				d.step = stepCold
			}
		}
		size := d.st.size
		if d.step == stepCold {
			size = d.st.spec.Tenant.WorkingSet
		}
		r, now, err := d.client.Submit(d.st.kind, size, nil, d.storedFn)
		if err == nil && !now {
			return
		}
		d.submitted(r)
	}
}

// stored is where a submission's store returns: account it and drain
// on.
func (d *dispatcher) stored(r *gpu.Request) {
	d.submitted(r)
	d.drain()
}

// submitted accounts one finished submission of the current item; r is
// nil when the task died before its virtual context could attach, so
// nothing reached the device.
func (d *dispatcher) submitted(r *gpu.Request) {
	if d.step == stepCold {
		// The rebuild's device time is real capacity spent — counted
		// only when it was actually staged.
		if r != nil {
			d.st.stats.ColdTime += d.st.spec.Tenant.WorkingSet
		}
		d.step = stepMain
		return
	}
	d.step = stepNext
	if r == nil {
		d.srv.fleet.RequestDone(d.node)
		d.st.stats.Aborted++
		return
	}
	r.Stamp = d.cur.arrival
	if r.IsDone() {
		d.onDone(r)
	} else {
		r.OnDone = d.doneFn
	}
}

// batchDrain stages the whole backlog on the channel and rings one
// doorbell (Config.BatchDrain): the drain pays one StoreAsync and one
// device kick — and the process one wake — for k requests, and the
// batch reaches the device in one event at now+DirectWrite. Returns
// false, staging nothing, when the batch fast path is unavailable
// (engaged register, detached context); the per-request path then
// takes over for this drain, preserving the fault/trap sequence
// engaged schedulers depend on.
func (d *dispatcher) batchDrain() bool {
	b, ok := d.client.BeginBatch(d.st.kind)
	if !ok {
		return false
	}
	for len(d.queue) > 0 {
		it := d.queue[0]
		d.queue = d.queue[1:]
		if task := d.st.ft.Task(d.node); task == nil || !task.Alive {
			d.srv.fleet.RequestDone(d.node)
			d.st.stats.Aborted++
			continue
		}
		if it.cold {
			ws := d.st.spec.Tenant.WorkingSet
			b.Stage(ws, d.st.kind, nil)
			d.st.stats.ColdTime += ws
		}
		r := b.Stage(d.st.size, d.st.kind, d.doneFn)
		r.Stamp = it.arrival
	}
	if n := b.Len(); n > 0 {
		d.st.stats.Flushes++
		d.st.stats.Batched += int64(n)
	}
	b.Flush(d.srv.eng)
	return true
}

// onDone is the completion hook: it runs in engine context the instant
// the device finishes (or aborts) the request — no polling process per
// request. The fleet's queue-depth release and the abort counter are
// immediate; completed-request stats are batched into the server's
// tick-end flush.
func (d *dispatcher) onDone(r *gpu.Request) {
	d.srv.fleet.RequestDone(d.node)
	if r.Aborted {
		d.st.stats.Aborted++
		return
	}
	d.srv.enqueueDone(d.st, r)
}

// enqueueDone buffers a completed request for the tick-end stats flush,
// scheduling the flush event on the first completion of the instant.
func (s *Server) enqueueDone(st *stream, r *gpu.Request) {
	s.doneBuf = append(s.doneBuf, doneRec{st: st, r: r, lat: r.Completed.Sub(r.Stamp)})
	if !s.flushQueued {
		s.flushQueued = true
		s.eng.After(0, s.flushFn)
	}
}

// flushDone delivers the instant's coalesced completions: per-stream
// goodput counters and latency digest adds, in completion order. The
// requests are then recycled to their device pools — every holder is
// done with them by the end of the completion instant (sampling
// watchers pin theirs, which exempts them from recycling).
func (s *Server) flushDone() {
	s.flushQueued = false
	buf := s.doneBuf
	for i := range buf {
		rec := &buf[i]
		rec.st.stats.Completed++
		rec.st.stats.Latency.Add(rec.lat)
		rec.r.Release()
		*rec = doneRec{}
	}
	s.doneBuf = buf[:0]
}

// drainFailed retires items queued before a client setup failure so
// the fleet depth does not leak; once err is set, arrive retires new
// placements to this node directly.
func (d *dispatcher) drainFailed() {
	for range d.queue {
		d.srv.fleet.RequestDone(d.node)
		d.st.stats.Aborted++
	}
	d.queue = nil
}
