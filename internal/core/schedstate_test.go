package core

import (
	"testing"
	"time"

	"repro/internal/neon"
)

// TestSchedulerStateLivesOnTask: DFQ, oracle and both timeslice forms
// keep their per-task state in neon.Task.Sched from admission, and
// TaskExited clears it, so an exited task reads back the defaults.
func TestSchedulerStateLivesOnTask(t *testing.T) {
	type probe struct {
		name  string
		sched neon.Scheduler
		// owned reports whether Sched holds this scheduler's state type.
		owned func(any) bool
		// zero reports whether every per-task accessor is at its default.
		zero func(*neon.Task) bool
	}
	dfq := NewDisengagedFairQueueing(DefaultDFQConfig())
	oracle := NewOracleFairQueueing(DefaultOracleInterval)
	ts := NewTimeslice(DefaultSlice)
	dts := NewDisengagedTimeslice(DefaultSlice)
	isTS := func(s any) bool { _, ok := s.(*tsTask); return ok }
	probes := []probe{
		{"dfq", dfq, func(s any) bool { _, ok := s.(*dfqTask); return ok },
			func(x *neon.Task) bool { return dfq.VirtualTime(x) == 0 && dfq.Estimate(x) == 0 && !dfq.Denied(x) }},
		{"oracle", oracle, func(s any) bool { _, ok := s.(*oracleTask); return ok },
			func(x *neon.Task) bool { return oracle.VirtualTime(x) == 0 && !oracle.Denied(x) }},
		{"timeslice", ts, isTS, func(x *neon.Task) bool { return ts.Overuse(x) == 0 }},
		{"dts", dts, isTS, func(x *neon.Task) bool { return dts.Overuse(x) == 0 }},
	}
	for _, pr := range probes {
		t.Run(pr.name, func(t *testing.T) {
			h := newHarness(t, pr.sched)
			a := h.startWorker("a", 200*time.Microsecond)
			b := h.startWorker("b", 50*time.Microsecond)
			killed := h.k.NewTask("killed")
			for _, x := range []*neon.Task{a.task, b.task, killed} {
				if !pr.owned(x.Sched) {
					t.Fatalf("%s: Sched after admission is %T", x.Name, x.Sched)
				}
			}
			h.eng.RunFor(200 * time.Millisecond)
			a.task.Exit()
			h.k.KillTask(killed, "test")
			h.eng.RunFor(100 * time.Millisecond)
			for _, x := range []*neon.Task{a.task, killed} {
				if x.Sched != nil {
					t.Errorf("%s: Sched after exit is %T, want nil", x.Name, x.Sched)
				}
				if !pr.zero(x) {
					t.Errorf("%s: accessors of an exited task are not at their defaults", x.Name)
				}
			}
			if !pr.owned(b.task.Sched) {
				t.Errorf("survivor's Sched is %T", b.task.Sched)
			}
		})
	}
}

// TestDFQUnknownTaskDefaults: a task this scheduler never admitted —
// here one hosted by another DFQ kernel, whose Sched holds that
// scheduler's live state — reads back the defaults.
func TestDFQUnknownTaskDefaults(t *testing.T) {
	mine := NewDisengagedFairQueueing(DefaultDFQConfig())
	theirs := NewDisengagedFairQueueing(DefaultDFQConfig())
	newHarness(t, mine)
	h := newHarness(t, theirs)
	w := h.startWorker("w", 100*time.Microsecond)
	h.eng.RunFor(200 * time.Millisecond)
	if theirs.Estimate(w.task) == 0 || theirs.VirtualTime(w.task) == 0 {
		t.Fatal("the hosting scheduler has no state for its own task")
	}
	if got := mine.Estimate(w.task); got != 0 {
		t.Errorf("Estimate of a foreign task = %v, want 0", got)
	}
	if got := mine.VirtualTime(w.task); got != 0 {
		t.Errorf("VirtualTime of a foreign task = %v, want 0", got)
	}
	if mine.Denied(w.task) {
		t.Error("Denied of a foreign task = true")
	}
	oracle := NewOracleFairQueueing(DefaultOracleInterval)
	newHarness(t, oracle)
	if oracle.VirtualTime(w.task) != 0 || oracle.Denied(w.task) {
		t.Error("oracle reports state for a task it never admitted")
	}
	ts := NewTimeslice(DefaultSlice)
	newHarness(t, ts)
	if ts.Overuse(w.task) != 0 {
		t.Error("timeslice reports overuse for a task it never admitted")
	}
}
