package neon

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// TestDrainAllocatesNothingAt1e4Tasks: once the kernel's drain buffer
// has grown, draining a 10^4-task population allocates nothing — scan
// targets live on the channels, drain times on the tasks.
func TestDrainAllocatesNothingAt1e4Tasks(t *testing.T) {
	e, _, k := testKernel(t, &recordingSched{})
	for i := 0; i < 3; i++ {
		openChannel(t, e, k)
	}
	for i := 0; i < 10_000; i++ {
		k.NewTask(fmt.Sprintf("idle-%05d", i))
	}
	tasks := k.Tasks()
	allocs := -1.0
	e.Spawn("sched", func(p *sim.Proc) {
		k.Drain(p, tasks) // grow the kernel's buffer
		allocs = testing.AllocsPerRun(20, func() { k.Drain(p, tasks) })
	})
	e.RunFor(time.Second)
	if allocs != 0 {
		t.Fatalf("Drain over %d tasks allocated %.1f times per call, want 0", len(tasks), allocs)
	}
}

// TestDrainResultLookupExact: DrainedAt reports the poll tick at which
// a drained or killed task was observed done, and nothing for a task
// the drain did not cover; Overuse is exactly the stamp's lateness. A
// result stops reporting a task once a later Drain stamps it.
func TestDrainResultLookupExact(t *testing.T) {
	e, _, k := testKernel(t, &recordingSched{})
	k.RequestRunLimit = 2 * time.Millisecond
	done, dcs := openChannel(t, e, k)
	hung, hcs := openChannel(t, e, k)
	other, _ := openChannel(t, e, k)
	costs := k.Costs()
	// tick returns the first poll instant at or after at, for a drain
	// started at start over the given number of channels.
	tick := func(start, at sim.Time, channels int) sim.Time {
		t0 := start.Add(sim.Duration(channels) * costs.ReengageScan)
		for at > t0 {
			t0 = t0.Add(costs.PollInterval)
		}
		return t0
	}

	var req *gpu.Request
	done.Go("work", func(p *sim.Proc) {
		req = dcs.Ch.Stage(300*time.Microsecond, gpu.Compute)
		dcs.Ch.Reg.Store(p, req.Ref)
	})
	var first, second, third DrainResult
	var firstAt sim.Time
	var firstOK, firstHung, firstAfter bool
	var over, overAtStamp sim.Duration
	e.Spawn("sched", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond)
		first = k.Drain(p, []*Task{done})
		firstAt, firstOK = first.DrainedAt(done)
		over = first.Overuse(done, firstAt-sim.Time(time.Microsecond))
		overAtStamp = first.Overuse(done, firstAt)
		r := hcs.Ch.Stage(gpu.Forever, gpu.Compute)
		hcs.Ch.Reg.Store(p, r.Ref)
		second = k.Drain(p, []*Task{hung})
		_, firstHung = first.DrainedAt(hung)
		_, firstAfter = first.DrainedAt(done)
		third = k.Drain(p, []*Task{done})
	})
	e.RunFor(100 * time.Millisecond)

	if want := tick(first.Started, req.Completed, 1); !firstOK || firstAt != want {
		t.Fatalf("first.DrainedAt(done) = %v, %v; want %v, true", firstAt, firstOK, want)
	}
	if over != time.Microsecond || overAtStamp != 0 {
		t.Fatalf("Overuse 1µs before / at the stamp = %v / %v, want 1µs / 0", over, overAtStamp)
	}
	if firstHung {
		t.Error("first drain reports the task only the second covered")
	}
	if !firstAfter {
		t.Error("first drain lost its task to a later drain that did not cover it")
	}

	// The hung request never progresses: the kill fires at the first
	// tick more than RequestRunLimit after the scan, and the next tick
	// stamps the dead task.
	if hung.Alive || len(second.Killed) != 1 || second.Killed[0] != hung {
		t.Fatalf("hung task not killed by the second drain: alive=%v Killed=%v", hung.Alive, second.Killed)
	}
	scanned := second.Started.Add(costs.ReengageScan)
	kill := tick(second.Started, scanned.Add(k.RequestRunLimit+1), 1)
	if at, ok := second.DrainedAt(hung); !ok || at != kill.Add(costs.PollInterval) {
		t.Fatalf("second.DrainedAt(hung) = %v, %v; want %v, true", at, ok, kill.Add(costs.PollInterval))
	}

	for name, r := range map[string]DrainResult{"first": first, "second": second, "third": third} {
		if at, ok := r.DrainedAt(other); ok {
			t.Errorf("%s.DrainedAt(other) = %v, true for a task it never covered", name, at)
		}
		if got := r.Overuse(other, 0); got != 0 {
			t.Errorf("%s.Overuse(other) = %v, want 0", name, got)
		}
	}
	if _, ok := first.DrainedAt(done); ok {
		t.Error("first drain still reports a task the third drain stamped")
	}
	if at, ok := third.DrainedAt(done); !ok || at != tick(third.Started, third.Started, 1) {
		t.Errorf("third.DrainedAt(done) = %v, %v; want the first tick of an idle drain", at, ok)
	}
	if _, ok := (DrainResult{}).DrainedAt(done); ok {
		t.Error("the zero DrainResult reports a task")
	}
}

// TestAppendTasksMatchesTasks: the allocation-free walk returns exactly
// Tasks(), in admission order, as tasks are admitted and killed.
func TestAppendTasksMatchesTasks(t *testing.T) {
	_, _, k := testKernel(t, &recordingSched{})
	check := func(when string) {
		t.Helper()
		want := k.Tasks()
		got := k.AppendTasks(nil)
		if len(got) != len(want) {
			t.Fatalf("%s: AppendTasks has %d tasks, Tasks %d", when, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: task %d is %s, Tasks has %s", when, i, got[i].Name, want[i].Name)
			}
		}
	}
	check("empty kernel")
	var ts []*Task
	for i := 0; i < 6; i++ {
		ts = append(ts, k.NewTask(fmt.Sprintf("t%d", i)))
	}
	check("after admissions")
	k.KillTask(ts[0], "test")
	k.KillTask(ts[3], "test")
	check("after kills")
	k.NewTask("late")
	ts[5].Exit()
	check("after a late admission and an exit")
	buf := make([]*Task, 1, 8)
	if got := k.AppendTasks(buf); got[0] != nil || len(got) != 1+len(k.Tasks()) {
		t.Fatal("AppendTasks did not append after the existing elements")
	}
}

// TestDrainOverlapPanics: drain targets and stamps are per kernel, so a
// second Drain started while one is in flight is refused loudly rather
// than corrupting the first one's targets.
func TestDrainOverlapPanics(t *testing.T) {
	e, _, k := testKernel(t, &recordingSched{})
	task, cs := openChannel(t, e, k)
	task.Go("work", func(p *sim.Proc) {
		r := cs.Ch.Stage(time.Millisecond, gpu.Compute)
		cs.Ch.Reg.Store(p, r.Ref)
	})
	for _, name := range []string{"first", "second"} {
		e.Spawn(name, func(p *sim.Proc) {
			p.Sleep(10 * time.Microsecond)
			k.Drain(p, []*Task{task})
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("an overlapping Drain did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "overlapping Drain") {
			t.Fatalf("panic %v, want the overlapping-Drain refusal", r)
		}
	}()
	e.RunFor(10 * time.Millisecond)
}
