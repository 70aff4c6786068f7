package fleet

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/workload"
)

const us = time.Microsecond

// TestClosedRunsOnContinuations pins that the paper's closed loop runs
// no process once it is set up: every round, whichever path its
// submissions take (direct doorbells, faults on engaged channels), is
// an engine continuation, and the only live processes are the
// schedulers' own loops.
//
//   - The paper's five-app population on one DFQ device (perfbench's
//     closed workload: four Table 1 apps and a saturating Throttle):
//     one live process, the DFQ loop, at 0.011 activations per
//     completed request; each app's thread lives only to open its
//     client.
//   - A fleet of launched tenants on two DFQ devices: one DFQ loop per
//     node, and no process per tenant.
//   - The infinite-kernel adversary during its warm-up rounds: none.
func TestClosedRunsOnContinuations(t *testing.T) {
	t.Run("apps", func(t *testing.T) {
		eng := sim.NewEngine()
		cfg := gpu.DefaultConfig()
		cfg.GraphicsPenalty = 3
		dev := gpu.New(eng, cfg)
		k := neon.NewKernel(dev, core.NewDisengagedFairQueueing(core.DefaultDFQConfig()))
		k.RequestRunLimit = time.Second
		var apps []*workload.App
		for i, name := range []string{"BinarySearch", "DCT", "MatrixMultiplication", "glxgears"} {
			s, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("no Table 1 spec %q", name)
			}
			apps = append(apps, workload.Launch(k, s, sim.NewRNG(int64(i))))
		}
		apps = append(apps, workload.Launch(k, workload.Throttle(400*us, 0), sim.NewRNG(4)))
		var completed int64
		dev.CompletionObserver = func(r *gpu.Request) {
			if !r.Aborted {
				completed++
			}
		}
		eng.RunFor(200 * time.Millisecond)
		for _, a := range apps {
			if err := a.SetupError(); err != nil {
				t.Fatal(err)
			}
		}
		completed = 0
		act0 := eng.Activations()
		eng.RunFor(500 * time.Millisecond)
		per := float64(eng.Activations()-act0) / float64(completed)
		t.Logf("%d completions, %.3f activations per request, %d live processes, %d faults",
			completed, per, eng.LiveProcs(), k.TotalFaults)
		if got := eng.LiveProcs(); got != 1 {
			t.Errorf("%d live processes, want exactly the DFQ loop", got)
		}
		if completed < 1000 || k.TotalFaults == 0 {
			t.Fatalf("%d completions and %d faults: the population is not running engaged", completed, k.TotalFaults)
		}
		if per >= 0.05 {
			t.Errorf("%.3f process activations per completed request, want < 0.05 (the DFQ loop's own)", per)
		}
	})

	t.Run("tenants", func(t *testing.T) {
		eng := sim.NewEngine()
		f, err := New(eng, Config{Devices: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var tenants []*Tenant
		for _, ts := range workload.FleetPopulation(2, "mixed") {
			tenants = append(tenants, f.Launch(ts))
		}
		eng.RunFor(200 * time.Millisecond)
		for _, tn := range tenants {
			if err := tn.SetupError(); err != nil || tn.Rounds == 0 {
				t.Fatalf("tenant %s: %d rounds, setup %v", tn.Spec.Name, tn.Rounds, err)
			}
		}
		if got, want := eng.LiveProcs(), len(f.Nodes()); got != want {
			t.Errorf("%d live processes, want exactly %d DFQ loops", got, want)
		}
	})

	t.Run("adversary", func(t *testing.T) {
		eng := sim.NewEngine()
		k := neon.NewKernel(gpu.New(eng, gpu.DefaultConfig()), core.NewDisengagedFairQueueing(core.DefaultDFQConfig()))
		dct, _ := workload.ByName("DCT")
		workload.Launch(k, dct, nil)
		inf := workload.LaunchInfiniteKernel(k, 1<<30)
		eng.RunFor(100 * time.Millisecond)
		rounds := inf.Rounds
		eng.RunFor(100 * time.Millisecond)
		if inf.Rounds == rounds || !inf.Task.Alive {
			t.Fatalf("warm-up stalled at %d rounds (alive %v)", inf.Rounds, inf.Task.Alive)
		}
		if got := eng.LiveProcs(); got != 1 {
			t.Errorf("%d live processes during the warm-up, want exactly the DFQ loop", got)
		}
	})
}

// TestTenantKilledAtEachSlowStep kills a fleet tenant's task while its
// first round submission is on each step of the slow path: in the
// instant its store found the register engaged, in the fault trap, in
// the scheduler's hold (a timeslice device whose slice a raw app
// holds), and waiting to attach its virtual context (a one-context
// device the raw app holds) — for a submit-and-wait tenant and a
// pipelined one. Each time the round stops: the tenant finishes the
// round on the dead handle and ends with the dead context as its
// setup error, the fire-and-forget count drains to exactly zero, and
// the fleet's queue depth returns to zero.
func TestTenantKilledAtEachSlowStep(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		for _, step := range []string{"refusal", "attach", "trap", "hold"} {
			name := step
			if pipelined {
				name += "/pipelined"
			}
			eng := sim.NewEngine()
			cfg := Config{Devices: 1, Sched: "timeslice", Seed: 1}
			if step == "attach" {
				cfg = Config{Devices: 1, Sched: "direct", GPU: gpu.Config{MaxContexts: 1}, Seed: 1}
			}
			f, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			node := f.Nodes()[0]
			// The raw app is set up first: it holds the first slice, or the
			// only hardware context.
			workload.Launch(node.Kernel, workload.Throttle(100*us, 0), nil)
			eng.RunFor(time.Millisecond)
			tn := f.Launch(workload.TenantSpec{Spec: workload.Spec{Name: "victim", CPU: 10 * us, Pipelined: pipelined,
				Mix: []workload.Req{{Size: 20 * us, Kind: gpu.Compute, Count: 2}}}})

			reached := func() bool {
				task := tn.Task(node)
				switch {
				case task == nil:
					return false
				case step == "attach":
					return node.Kernel.MuxStatus().AttachWaits > 0
				case step == "hold":
					return task.Gate().Waiters() > 0
				}
				return len(task.Channels()) > 0 && task.Channels()[0].Ch.Reg.Faults > 0
			}
			for !reached() {
				if !eng.Step() {
					t.Fatalf("%s: engine drained before the submission reached the step", name)
				}
			}
			if step == "trap" {
				eng.RunFor(node.Kernel.Costs().FaultTrap / 2)
			}
			node.Kernel.KillTask(tn.Task(node), "test: die on the slow path")
			eng.RunFor(time.Millisecond)
			rounds := tn.Rounds
			eng.RunFor(time.Millisecond)
			if tn.SetupError() != gpu.ErrContextDead || tn.Rounds != rounds {
				t.Errorf("%s: setup error %v, %d rounds then %d; want the dead context and a stopped tenant",
					name, tn.SetupError(), rounds, tn.Rounds)
			}
			if tn.pending != 0 {
				t.Errorf("%s: %d fire-and-forget submissions pending, want 0", name, tn.pending)
			}
			if depth := f.QueueDepth(); depth != 0 {
				t.Errorf("%s: fleet queue depth %d after the kill, want 0", name, depth)
			}
		}
	}
}
