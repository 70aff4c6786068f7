package neon

import (
	"repro/internal/gpu"
	"repro/internal/sim"
)

// SampleResult is what a sampling run learned about a task.
type SampleResult struct {
	// Sizes are the observed service times of requests that completed
	// within the sampling window, in completion order.
	Sizes []sim.Duration
	// Elapsed is how long the sampling window lasted.
	Elapsed sim.Duration
}

// Mean returns the average observed service time, or 0 if none completed.
func (s SampleResult) Mean() sim.Duration {
	if len(s.Sizes) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, d := range s.Sizes {
		sum += d
	}
	return sum / sim.Duration(len(s.Sizes))
}

// sampleState tracks an in-progress sampling run.
type sampleState struct {
	active bool
	want   int
	sizes  []sim.Duration
	gate   *sim.Gate
}

// Sample gives the scheduler a measured look at task t's requests: with
// the task engaged (every submission intercepted), observed requests'
// service times are recorded until either maxReqs requests complete or
// maxDur elapses, whichever comes first. The caller must have arranged
// exclusive device access for t (that is the point of the engagement
// episode in Disengaged Fair Queueing).
//
// Completion times are observed per request; the prototype achieves this
// by running its polling service at high rate during the short sampling
// window, so no additional cost is charged beyond the per-request
// interception already paid by the fault path.
func (k *Kernel) Sample(p *sim.Proc, t *Task, maxDur sim.Duration, maxReqs int) SampleResult {
	st := &sampleState{active: true, want: maxReqs, gate: k.eng.NewGate("sample-" + t.Name)}
	start := p.Now()
	t.sample = st
	for _, cs := range t.channels {
		cs.sampling = true
		cs.watchedRef = cs.Ch.LastSubmittedRef
	}
	p.WaitTimeout(st.gate, maxDur)
	st.active = false
	if t.Alive {
		for _, cs := range t.channels {
			cs.sampling = false
		}
	}
	t.sample = nil
	return SampleResult{Sizes: st.sizes, Elapsed: p.Now().Sub(start)}
}

// watchStaged registers completion watchers for requests newly staged on
// a sampled channel. Called from the fault handler.
//
// A watcher is a continuation on the request's done gate, armed by an
// event at the back of the current instant: it joins the gate's FIFO,
// and observes, at the same event positions as a process spawned here
// to wait on the gate would. Watchers outliving their sampling window
// find it inactive and do nothing.
func (k *Kernel) watchStaged(cs *ChannelState) {
	st := cs.Task.sample
	if st == nil || !st.active {
		return
	}
	for _, r := range cs.Ch.StagedRequests() {
		if r.Ref <= cs.watchedRef {
			continue
		}
		cs.watchedRef = r.Ref
		req := r
		// The watcher reads timing fields after the done gate opens, so
		// the request must survive any completion-time recycling.
		req.Pin()
		k.eng.After(0, func() {
			req.DoneGate().Notify(func() { st.observe(req) })
		})
	}
}

func (st *sampleState) observe(r *gpu.Request) {
	if !st.active || r.Aborted {
		return
	}
	st.sizes = append(st.sizes, r.Completed.Sub(r.Started))
	if len(st.sizes) >= st.want {
		st.gate.Open()
	}
}
