package core

import (
	"time"

	"repro/internal/neon"
	"repro/internal/sim"
)

// DefaultOracleInterval matches one full DFQ engagement+free-run cycle.
const DefaultOracleInterval = 30 * time.Millisecond

// OracleFairQueueing is the Section 6.1 ablation: disengaged fair
// queueing as it would exist with vendor cooperation. The device exports
// per-context busy time (gpu.Context.BusyTime), so the scheduler needs no
// barriers, no draining, and no sampling runs — it simply reads the
// counters every interval, updates virtual times with *true* usage, and
// denies tasks that have run too far ahead. Comparing it with
// DisengagedFairQueueing isolates the cost of software estimation: the
// glxgears and oclParticles anomalies disappear.
type OracleFairQueueing struct {
	interval sim.Duration

	k         *neon.Kernel
	speed     float64 // device class speed factor, set at Start
	admitGate *sim.Gate
	sysVT     Work
	live      []*neon.Task // reused per-interval task walk

	// Intervals counts completed accounting rounds, for tests.
	Intervals int64
	// Denials counts task-intervals denied, for tests.
	Denials int64
}

// oracleTask is the per-task scheduler state, kept in neon.Task.Sched.
type oracleTask struct {
	vt       Work
	lastBusy sim.Duration
	denied   bool
	// active marks the task as backlogged or consuming in the current
	// accounting round.
	active bool
}

// NewOracleFairQueueing returns the hardware-statistics scheduler.
func NewOracleFairQueueing(interval sim.Duration) *OracleFairQueueing {
	if interval <= 0 {
		interval = DefaultOracleInterval
	}
	return &OracleFairQueueing{interval: interval}
}

// Name implements neon.Scheduler.
func (o *OracleFairQueueing) Name() string { return "oracle-fair-queueing" }

// VirtualTime returns the task's virtual time in normalized work, for
// tests.
func (o *OracleFairQueueing) VirtualTime(t *neon.Task) Work {
	if s := o.lookup(t); s != nil {
		return s.vt
	}
	return 0
}

// Denied reports whether the task is currently excluded.
func (o *OracleFairQueueing) Denied(t *neon.Task) bool {
	s := o.lookup(t)
	return s != nil && s.denied
}

// Start implements neon.Scheduler.
func (o *OracleFairQueueing) Start(k *neon.Kernel) {
	o.k = k
	o.speed = k.Device().ClassSpeed()
	o.admitGate = k.Engine().NewGate("oracle-admit")
	k.Engine().Spawn("sched/oracle", o.run)
}

// TaskAdmitted implements neon.Scheduler.
func (o *OracleFairQueueing) TaskAdmitted(t *neon.Task) {
	t.Sched = &oracleTask{vt: o.sysVT}
	o.admitGate.Broadcast()
}

// TaskExited implements neon.Scheduler.
func (o *OracleFairQueueing) TaskExited(t *neon.Task) { t.Sched = nil }

// ChannelActivated implements neon.Scheduler.
func (o *OracleFairQueueing) ChannelActivated(cs *neon.ChannelState) {
	cs.Ch.Reg.SetPresent(!o.Denied(cs.Task))
}

// MayRun implements neon.Scheduler: only denied tasks ever fault, and
// they wait out the interval.
func (o *OracleFairQueueing) MayRun(t *neon.Task) bool { return !o.Denied(t) }

// run reads hardware usage counters each interval and updates the
// fair-queueing state. No draining or sampling is ever needed.
func (o *OracleFairQueueing) run(p *sim.Proc) {
	for {
		if o.live = o.k.AppendTasks(o.live[:0]); len(o.live) == 0 {
			p.Wait(o.admitGate)
			continue
		}
		p.Sleep(o.interval)
		p.Sleep(o.k.Costs().SchedulerCompute)
		o.Intervals++
		o.k.EnforceRunLimit()
		// Nothing below yields or kills, so one walk serves all steps.
		o.live = o.k.AppendTasks(o.live[:0])

		// Step 1: charge true per-task usage, read from the device,
		// normalized to work units at the device's class speed, and
		// divided by the task's fair-share weight. The system virtual
		// time advances to the least virtual time among active tasks.
		var minVT Work
		anyActive := false
		for _, t := range o.live {
			s := o.state(t)
			busy := t.BusyTime()
			delta := busy - s.lastBusy
			s.lastBusy = busy
			s.vt += PerWeight(WorkFor(delta, o.speed), t.ShareWeight())
			s.active = delta > 0 || t.PendingRequests() > 0 || t.Gate().Waiters() > 0
			if s.active && (!anyActive || s.vt < minVT) {
				minVT, anyActive = s.vt, true
			}
		}
		if anyActive && minVT > o.sysVT {
			o.sysVT = minVT
		}

		// Step 2: idle tasks forfeit unused credit.
		for _, t := range o.live {
			s := o.state(t)
			if !s.active && s.vt < o.sysVT {
				s.vt = o.sysVT
			}
		}

		// Step 3: deny tasks too far ahead; admit the rest.
		horizon := WorkFor(o.interval, o.speed)
		for _, t := range o.live {
			s := o.state(t)
			denied := s.vt-o.sysVT >= horizon
			if denied && !s.denied {
				o.Denials++
				o.k.Engage(t)
			}
			if !denied && s.denied {
				o.k.Disengage(t)
			}
			s.denied = denied
			if !denied {
				t.Gate().Broadcast()
			}
		}
	}
}

// state returns the task's scheduler state, creating it for a task
// the scheduler has not seen. t must belong to this scheduler's kernel.
func (o *OracleFairQueueing) state(t *neon.Task) *oracleTask {
	s, _ := t.Sched.(*oracleTask)
	if s == nil {
		s = &oracleTask{vt: o.sysVT}
		t.Sched = s
	}
	return s
}

// lookup returns the task's scheduler state, or nil for a task this
// scheduler has not admitted or has seen exit.
func (o *OracleFairQueueing) lookup(t *neon.Task) *oracleTask {
	if t.Kernel() != o.k {
		return nil
	}
	s, _ := t.Sched.(*oracleTask)
	return s
}

var _ neon.Scheduler = (*OracleFairQueueing)(nil)
