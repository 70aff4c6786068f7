package workload

import (
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// App is a running application instance: a kernel task executing its
// spec's round loop forever (until killed or the simulation stops).
type App struct {
	Spec Spec
	Task *neon.Task

	// Rounds and RoundTime accumulate since the last ResetStats.
	Rounds    int64
	RoundTime sim.Duration

	// Observe enables Figure 2 instrumentation.
	Observe      bool
	InterArrival metrics.Log2Hist
	Service      metrics.Log2Hist
	perKind      map[gpu.Kind]*metrics.Mean

	client     *userlib.Client
	rng        *sim.RNG
	lastSubmit sim.Time
	setupErr   error

	// Round-machine state (DESIGN.md §14): the round loop is an
	// engine-driven state machine over userlib.Client.Submit, so a round
	// runs no process, whichever path its submissions take.
	eng        *sim.Engine
	reqs       []Req
	phase      int
	idx        int            // next request in the round's sequence
	pending    int            // fire-and-forget submissions not yet completed
	fencing    bool           // machine parked at the frame fence
	awaiting   *gpu.Request   // submit-and-wait request whose completion resumes the machine
	retire     []*gpu.Request // completed fire-and-forget requests to recycle
	roundStart sim.Time
	stepFn     func()
	storedFn   func(*gpu.Request)
	trivDone   func(*gpu.Request)
	pipeDone   func(*gpu.Request)
	blockDone  func(*gpu.Request)
}

// Round-machine phases.
const (
	phThink  = iota // CPU think timer in flight
	phSubmit        // submitting reqs[idx:]
	phFence         // waiting for pending to reach zero
	phOff           // off-period timer in flight
)

// Launch creates a task named after the spec and starts its round loop.
// The returned App accumulates statistics as the simulation advances.
// The task's one thread opens the client, paying the setup syscalls,
// starts the round machine and ends; a spec whose Mix names a kind its
// Channels do not open fails there, reported by SetupError.
func Launch(k *neon.Kernel, spec Spec, rng *sim.RNG) *App {
	a := &App{
		Spec:    spec,
		rng:     rng,
		perKind: make(map[gpu.Kind]*metrics.Mean),
	}
	a.Task = k.NewTask(spec.Name)
	if err := spec.checkKinds(); err != nil {
		a.setupErr = err
		return a
	}
	userlib.OpenAsync(k, a.Task, spec.Name, spec.ChannelKinds(), a.start)
	return a
}

// SetupError returns any context/channel allocation failure.
func (a *App) SetupError() error { return a.setupErr }

// Alive reports whether the app's task is still running.
func (a *App) Alive() bool { return a.Task.Alive }

// AvgRound returns the mean round time since the last ResetStats.
func (a *App) AvgRound() sim.Duration {
	if a.Rounds == 0 {
		return 0
	}
	return a.RoundTime / sim.Duration(a.Rounds)
}

// MeanRequest returns the observed mean service time on a channel kind.
func (a *App) MeanRequest(kind gpu.Kind) sim.Duration {
	if m := a.perKind[kind]; m != nil {
		return m.Duration()
	}
	return 0
}

// ResetStats clears round and request statistics (for warmup exclusion).
func (a *App) ResetStats() {
	a.Rounds = 0
	a.RoundTime = 0
	a.InterArrival = metrics.Log2Hist{}
	a.Service = metrics.Log2Hist{}
	a.perKind = make(map[gpu.Kind]*metrics.Mean)
}

// start receives the opened client and begins the first round. The
// machine reproduces a blocking round loop's event timeline: a
// fire-and-forget submission resumes where its store returns
// (userlib.Client.Submit's fn), and a completion re-enters via After(0),
// the queue position a done-gate broadcast gives a woken process.
func (a *App) start(c *userlib.Client, err error) {
	if err != nil {
		a.setupErr = err
		return
	}
	a.client = c
	a.eng = c.Task.Kernel().Engine()
	a.reqs = a.Spec.Requests()
	a.stepFn = a.step
	a.storedFn = func(r *gpu.Request) {
		if r == nil {
			a.pending--
		}
		a.step()
	}
	a.trivDone = func(r *gpu.Request) { a.oneDone(r, false) }
	a.pipeDone = func(r *gpu.Request) { a.oneDone(r, true) }
	a.blockDone = func(r *gpu.Request) {
		a.awaiting = r
		a.eng.After(0, a.stepFn)
	}
	a.beginRound(a.eng.Now())
}

// beginRound starts a round: stamp the start, think for CPU, submit.
func (a *App) beginRound(now sim.Time) {
	a.roundStart = now
	a.phase = phThink
	a.eng.After(a.Spec.CPU, a.stepFn)
}

// endRound accounts the finished round and starts the next one.
func (a *App) endRound() {
	now := a.eng.Now()
	a.Rounds++
	a.RoundTime += now.Sub(a.roundStart)
	a.beginRound(now)
}

// oneDone is the completion continuation of fire-and-forget submissions
// (trivial and pipelined requests). It runs in engine context inside the
// request's finish; the request is retired later, from step context,
// because the device's completion observer still reads it after the
// hook returns.
func (a *App) oneDone(r *gpu.Request, observe bool) {
	a.pending--
	if r.Aborted {
		return
	}
	if observe {
		a.noteDone(r)
	}
	a.retire = append(a.retire, r)
	if a.fencing && a.pending == 0 {
		a.eng.After(0, a.stepFn)
	}
}

// step advances the round machine in engine context.
func (a *App) step() {
	if !a.Task.Alive {
		return
	}
	if r := a.awaiting; r != nil {
		// A submit-and-wait request's completion brought us here. The
		// request is recycled: completion processing finished before this
		// After(0) step ran, and nothing else holds the pointer (sampling
		// watchers pin, making Release a no-op).
		a.awaiting = nil
		a.noteDone(r)
		r.Release()
	}
	for {
		switch a.phase {
		case phThink:
			a.phase = phSubmit
			a.idx = 0
		case phSubmit:
			if a.idx == len(a.reqs) {
				a.phase = phFence
				continue
			}
			rq := a.reqs[a.idx]
			a.idx++
			a.noteSubmit(a.eng.Now())
			if !rq.Trivial && !a.Spec.Pipelined {
				// Submit and wait: the completion resumes the machine.
				a.client.Submit(rq.Kind, rq.Size, a.blockDone, nil)
				return
			}
			// Fire and forget: completion feeds the fence counter (and, for
			// pipelined requests, the service stats); the machine goes on
			// where the store returns.
			hook := a.trivDone
			if !rq.Trivial {
				hook = a.pipeDone
			}
			a.pending++
			if _, now, err := a.client.Submit(rq.Kind, rq.Size, hook, a.storedFn); err != nil || !now {
				return
			}
		case phFence:
			// Frame fence: wait for every fire-and-forget completion of the
			// round, then recycle the retired requests.
			if a.pending > 0 {
				a.fencing = true
				return
			}
			a.fencing = false
			for i, r := range a.retire {
				r.Release()
				a.retire[i] = nil
			}
			a.retire = a.retire[:0]

			// Off-period for nonsaturating workloads: a fixed per-round
			// think time derived from the *standalone* active time, so
			// contention stretches the busy part of the cycle but not the
			// idle part.
			if off := a.Spec.OffTime(); off > 0 {
				a.phase = phOff
				a.eng.After(off, a.stepFn)
				return
			}
			a.endRound()
			return
		case phOff:
			a.endRound()
			return
		}
	}
}

func (a *App) noteSubmit(now sim.Time) {
	if a.Observe && a.lastSubmit != 0 {
		a.InterArrival.Add(now.Sub(a.lastSubmit))
	}
	a.lastSubmit = now
}

func (a *App) noteDone(r *gpu.Request) {
	if r.Aborted {
		return
	}
	service := r.Completed.Sub(r.Started)
	if a.Observe {
		a.Service.Add(service)
	}
	m := a.perKind[r.Kind]
	if m == nil {
		m = &metrics.Mean{}
		a.perKind[r.Kind] = m
	}
	m.AddDuration(service)
}
