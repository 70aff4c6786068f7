package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Duration{30, 10, 20} {
		d := d
		e.After(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("event %d ran at %v, want %v", i, got[i], w)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %v", i, got)
		}
	}
}

// TestNegativeAfterPanics: a negative delay is refused at the call,
// naming the delay and the current time, and schedules nothing.
func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	e.RunUntil(3)
	fired := false
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "-5ns") || !strings.Contains(msg, "3ns") {
				t.Errorf("panic %q, want one naming the delay -5ns and the time 3ns", msg)
			}
		}()
		e.After(-5, func() { fired = true })
	}()
	e.Run()
	if fired || e.Pending() != 0 {
		t.Fatalf("fired=%v pending=%d after a refused After", fired, e.Pending())
	}
}

// TestZeroAfterRunsAfterQueuedSameTimeEvents pins the documented
// same-tick ordering of After: a zero duration scheduled from inside a
// running event fires at the current instant but after every event
// already queued for that instant — insertion order decides within a
// tick, so the late After always lands at the back.
func TestZeroAfterRunsAfterQueuedSameTimeEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	e.After(10, func() {
		// Two events already queued for t=10 when the After is issued.
		got = append(got, "first")
		e.After(0, func() { got = append(got, "late-after") })
	})
	e.After(10, func() { got = append(got, "second") })
	e.After(10, func() { got = append(got, "third") })
	e.Run()
	want := []string{"first", "second", "third", "late-after"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("same-tick After advanced the clock to %v", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.After(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestTimerStop(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.After(10, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine()
	tm := e.After(1, func() {})
	e.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(100, func() { ran = true })
	e.RunUntil(50)
	if ran {
		t.Fatal("future event ran early")
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
	e.RunUntil(100)
	if !ran {
		t.Fatal("event did not run at its time")
	}
}

func TestRunForIsRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(30)
	e.RunFor(20)
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
}

func TestPendingCountsUncancelled(t *testing.T) {
	e := NewEngine()
	tm := e.After(10, func() {})
	e.After(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d after cancel, want 1", e.Pending())
	}
}

func TestResetReturnsEngineToInitialState(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(10, func() { fired = true })
	e.RunFor(5)
	e.Reset()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v after Reset, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Reset, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Fatal("pre-Reset event fired after Reset")
	}
	// The engine is fully reusable: a fresh run behaves like a new engine.
	ran := false
	e.After(3, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 3 {
		t.Fatalf("post-Reset run: ran=%v now=%v", ran, e.Now())
	}
}

// Reset must refuse to strand parked proc goroutines: a live proc means
// the engine cannot be safely reused.
func TestResetWithLiveProcsPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Hour)
	})
	e.RunFor(time.Minute)
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs() = %d, want 1", e.LiveProcs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset with a live proc did not panic")
		}
	}()
	e.Reset()
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.After(1, recur)
		}
	}
	e.After(0, recur)
	e.Run()
	if depth != 100 || e.Now() != 99 {
		t.Fatalf("depth=%d now=%v", depth, e.Now())
	}
}

func TestTimeAddSaturates(t *testing.T) {
	if MaxTime.Add(time.Hour) != MaxTime {
		t.Fatal("Add past MaxTime did not saturate")
	}
	if Time(5).Add(3) != 8 {
		t.Fatal("basic Add broken")
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(1_500_000) // 1.5ms
	if tm.Sub(Time(500_000)) != Duration(1_000_000) {
		t.Fatal("Sub wrong")
	}
	if tm.Seconds() != 0.0015 {
		t.Fatalf("Seconds() = %v", tm.Seconds())
	}
	if tm.Microseconds() != 1500 {
		t.Fatalf("Microseconds() = %v", tm.Microseconds())
	}
}

// TestPropertyEventOrder: for any set of delays, events fire in
// nondecreasing time order and the clock ends at the max delay.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.After(Duration(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism: the same schedule always produces the same
// execution trace.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []Time
		for i := 0; i < 500; i++ {
			e.After(Duration(rng.Intn(1000)), func() { trace = append(trace, e.Now()) })
		}
		e.Run()
		return trace
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
