package neon

import (
	"repro/internal/sim"
)

// DrainResult reports the outcome of a drain barrier.
type DrainResult struct {
	// Started is when the barrier began.
	Started sim.Time
	// Killed lists tasks terminated for exceeding the request run limit.
	Killed []*Task

	// epoch identifies the drain whose per-task stamps this result
	// reads; zero for a result no drain produced.
	epoch uint64
}

// DrainedAt returns the virtual time at which the task's last
// outstanding request was observed complete (quantized to the polling
// granularity, as in the prototype), and whether the drain covered the
// task at all. The time is a stamp on the task, so a result answers
// only until a later Drain covers the same task.
func (r DrainResult) DrainedAt(t *Task) (sim.Time, bool) {
	if r.epoch == 0 || t.drainEpoch != r.epoch {
		return 0, false
	}
	return t.drainedAt, true
}

// Overuse returns how far past deadline the task's outstanding requests
// ran, or zero. Timeslice schedulers charge this against future slices.
func (r DrainResult) Overuse(t *Task, deadline sim.Time) sim.Duration {
	at, ok := r.DrainedAt(t)
	if !ok || at <= deadline {
		return 0
	}
	return at.Sub(deadline)
}

// Drain waits until every outstanding request of the given tasks has
// completed, as observed through reference counters at the kernel's
// polling granularity. Callers must first have arranged (via engagement
// and scheduler policy) that the tasks submit no new work.
//
// The post-re-engagement status update is charged here: one ReengageScan
// per active channel to discover the last submitted reference values.
//
// If RequestRunLimit is non-zero and a request occupies the device beyond
// it, the task owning the currently running context is killed through the
// exit protocol. The prototype identifies that context as the last token
// holder (timeslice) or the sampled task; here we consult the device's
// current request, standing in for the Section 6.2 vendor mechanism to
// "identify and kill the currently running context".
//
// Drain allocates nothing once the kernel's scratch buffer has grown to
// the population: scan targets live on the channels and drain times on
// the tasks, both tagged with the drain's epoch. Drains on one kernel
// therefore run one at a time — each scheduler drives them from its
// single control process — and an overlapping call panics.
func (k *Kernel) Drain(p *sim.Proc, tasks []*Task) DrainResult {
	if k.draining {
		panic("neon: overlapping Drain on kernel " + k.Label)
	}
	k.draining = true
	remaining := append(k.drainBuf[:0], tasks...)
	defer func() { k.drainBuf, k.draining = remaining[:0], false }()
	k.drainEpoch++
	res := DrainResult{Started: p.Now(), epoch: k.drainEpoch}

	// Status update: scan every active channel for its last submitted
	// reference value.
	for _, t := range tasks {
		for _, cs := range t.channels {
			p.Sleep(k.costs.ReengageScan)
			cs.drainTarget = cs.Ch.LastSubmittedRef
			cs.drainEpoch = res.epoch
		}
	}

	lastProgress := p.Now()
	var lastSnapshot = k.refSnapshot(remaining)

	for {
		// Check immediately: draining completes at once if the device is
		// not working on the tasks' requests.
		still := remaining[:0]
		for _, t := range remaining {
			if !t.Alive || k.taskDrained(t, res.epoch) {
				t.drainEpoch, t.drainedAt = res.epoch, p.Now()
				continue
			}
			still = append(still, t)
		}
		remaining = still
		if len(remaining) == 0 {
			return res
		}

		if snap := k.refSnapshot(remaining); snap != lastSnapshot {
			lastSnapshot = snap
			lastProgress = p.Now()
		}
		if k.RequestRunLimit > 0 && p.Now().Sub(lastProgress) > k.RequestRunLimit {
			if victim := k.runningTask(); victim != nil {
				k.KillTask(victim, "request exceeded run limit")
				res.Killed = append(res.Killed, victim)
			}
			lastProgress = p.Now()
		}
		p.Sleep(k.costs.PollInterval)
	}
}

// taskDrained reports whether all of the task's channels have reached
// their scan targets in the given drain. A channel this drain never
// scanned (created after the status update) has no target to reach.
func (k *Kernel) taskDrained(t *Task, epoch uint64) bool {
	for _, cs := range t.channels {
		if cs.drainEpoch == epoch && cs.Ch.RefCount < cs.drainTarget {
			return false
		}
	}
	return true
}

// refSnapshot folds the tasks' reference counters into a single progress
// fingerprint.
func (k *Kernel) refSnapshot(tasks []*Task) uint64 {
	var h uint64 = 1469598103934665603
	for _, t := range tasks {
		for _, cs := range t.channels {
			h ^= cs.Ch.RefCount + uint64(cs.Ch.ID)<<32
			h *= 1099511628211
		}
	}
	return h
}

// runningTask returns the task owning the request currently executing on
// the device's main engine, if any.
func (k *Kernel) runningTask() *Task {
	cur := k.dev.CurrentRequest()
	if cur == nil {
		return nil
	}
	return k.tasks[cur.Channel().Ctx.Owner]
}

// EnforceRunLimit kills the task owning the currently executing request
// if that request has occupied the engine beyond RequestRunLimit. This is
// the barrier-free enforcement path used by schedulers that never drain
// (oracle fair queueing); it relies on the same identify-the-running-
// context mechanism as Drain. Returns the killed task, if any.
func (k *Kernel) EnforceRunLimit() *Task {
	if k.RequestRunLimit <= 0 {
		return nil
	}
	cur := k.dev.CurrentRequest()
	if cur == nil || k.eng.Now().Sub(cur.Started) <= k.RequestRunLimit {
		return nil
	}
	t := k.runningTask()
	if t != nil {
		k.KillTask(t, "request exceeded run limit")
	}
	return t
}
