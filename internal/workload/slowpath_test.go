package workload

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
)

// holdSched engages every channel, so every submission faults, and
// holds the faults of every task while held is set.
type holdSched struct {
	passthrough
	held bool
}

func (*holdSched) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(false) }
func (s *holdSched) MayRun(*neon.Task) bool               { return !s.held }

// TestAppKilledAtEachSlowStep kills an app's task while its first
// submission is on each step of the slow path an engaged channel
// takes: in the instant the store found the register engaged, in the
// fault trap, and in the scheduler's hold — for a submit-and-wait app
// and a pipelined one. Each time the round machine stops where it is:
// no round completes after the kill, the fire-and-forget count drains
// to exactly zero (an abort and the faulting store's return must not
// both count), and no process is left.
func TestAppKilledAtEachSlowStep(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		for _, step := range []string{"refusal", "trap", "hold"} {
			name := step
			if pipelined {
				name += "/pipelined"
			}
			e := sim.NewEngine()
			sched := &holdSched{held: step == "hold"}
			k := neon.NewKernel(gpu.New(e, gpu.DefaultConfig()), sched)
			a := Launch(k, Spec{Name: "app", CPU: 10 * time.Microsecond, Pipelined: pipelined,
				Mix: []Req{{Size: 20 * time.Microsecond, Kind: gpu.Compute, Count: 2}}}, nil)
			for a.client == nil || a.client.Channel(gpu.Compute).Reg.Faults == 0 {
				if !e.Step() {
					t.Fatalf("%s: engine drained before the first submission faulted", name)
				}
			}
			switch refused := e.Now(); step {
			case "trap":
				e.RunUntil(refused.Add(k.Costs().FaultTrap / 2))
			case "hold":
				e.RunUntil(refused.Add(k.Costs().InterceptCost() + time.Microsecond))
				if a.Task.Gate().Waiters() == 0 {
					t.Fatalf("%s: the fault is not held by the scheduler", name)
				}
			}
			k.KillTask(a.Task, "test: die on the slow path")
			e.RunFor(time.Millisecond)
			if a.Rounds != 0 || a.pending != 0 {
				t.Errorf("%s: %d rounds, %d pending after the kill; want 0 and 0", name, a.Rounds, a.pending)
			}
			if n := e.LiveProcs(); n != 0 {
				t.Errorf("%s: %d processes live, want 0", name, n)
			}
		}
	}
}

// TestLaunchRejectsUnopenedKind: a spec whose Mix names a kind its
// Channels do not open fails at Launch, reported through SetupError,
// instead of crashing the job at its first such submission.
func TestLaunchRejectsUnopenedKind(t *testing.T) {
	e, k := stack(t)
	a := Launch(k, Spec{Name: "x", CPU: time.Microsecond,
		Mix: []Req{{Size: 10 * time.Microsecond, Kind: gpu.Graphics}}}, sim.NewRNG(1))
	e.RunFor(10 * time.Millisecond)
	err := a.SetupError()
	if err == nil || !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "graphics") {
		t.Fatalf("SetupError = %v, want an error naming the spec and the kind", err)
	}
	if a.Rounds != 0 {
		t.Errorf("a misconfigured app ran %d rounds", a.Rounds)
	}
}

// TestTenantSpecValidateRejectsUnopenedKind: the same check guards the
// fleet and serving layers, which validate tenant specs up front.
func TestTenantSpecValidateRejectsUnopenedKind(t *testing.T) {
	bad := TenantSpec{Spec: Spec{Name: "gfx", Channels: []gpu.Kind{gpu.Compute},
		Mix: []Req{{Size: time.Microsecond, Kind: gpu.Graphics}}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), `"gfx"`) || !strings.Contains(err.Error(), "graphics") {
		t.Fatalf("Validate = %v, want an error naming the spec and the kind", err)
	}
	good := bad
	good.Channels = []gpu.Kind{gpu.Compute, gpu.Graphics}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a spec that opens its kinds: %v", err)
	}
	for _, s := range Table1() {
		if err := (TenantSpec{Spec: s}).Validate(); err != nil {
			t.Errorf("Table 1 spec rejected: %v", err)
		}
	}
}
