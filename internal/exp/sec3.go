package exp

import (
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// sec3Sizes are the equal-sized request sweeps of the Section 3 study.
var sec3Sizes = []float64{10, 20, 40, 60, 100}

// Sec3Throughput reproduces the Section 3 motivation measurement: the
// throughput gain of direct device access over a stack that traps to the
// kernel on every request, for equal-sized requests of 10-100us, both
// with a minimal trap and with nontrivial driver processing per trap.
// Every (size, stack) combination is an independent job.
func Sec3Throughput(opts Options) *report.Table {
	stacks := []struct {
		name       string
		trap, work bool
	}{
		{"direct", false, false},
		{"trap", true, false},
		{"trap+driver", true, true},
	}
	var jobs []Job
	for i, usz := range sec3Sizes {
		size := time.Duration(usz * float64(time.Microsecond))
		for j, st := range stacks {
			jobs = append(jobs, NewJob("sec3", i*len(stacks)+j,
				fmt.Sprintf("%.0fus via %s", usz, st.name),
				func(o Options) any { return throughput(o, size, st.trap, st.work) }))
		}
	}
	res := RunJobs(opts, jobs)

	t := report.New("Section 3: direct access vs per-request kernel traps (throughput gain of direct)",
		"Request size", "vs plain trap", "vs trap+driver work")
	for i, usz := range sec3Sizes {
		direct := res[i*len(stacks)].Value.(float64)
		trap := res[i*len(stacks)+1].Value.(float64)
		heavy := res[i*len(stacks)+2].Value.(float64)
		t.AddRow(fmt.Sprintf("%.0fus", usz),
			fmt.Sprintf("+%.0f%%", 100*(direct/trap-1)),
			fmt.Sprintf("+%.0f%%", 100*(direct/heavy-1)))
	}
	t.AddNote("paper: 8-35%% gain over plain traps, 48-170%% over traps with driver work, for 10-100us requests")
	return t
}

// throughput measures completed requests/second for back-to-back
// submit-and-wait requests of one size under the chosen submission
// stack. The client is a self-resubmitting continuation chain: each
// completion submits the next request from engine context, and the
// trap stacks pay their trap on Submit's slow path.
func throughput(opts Options, size sim.Duration, trap, driverWork bool) float64 {
	eng := sim.NewEngine()
	cfg := gpu.DefaultConfig()
	dev := gpu.New(eng, cfg)
	k := neon.NewKernel(dev, noScheduler{})
	task := k.NewTask("throttle")
	var done int64
	userlib.OpenAsync(k, task, "throttle", []gpu.Kind{gpu.Compute}, func(client *userlib.Client, err error) {
		if err != nil {
			return
		}
		client.TrapPerRequest = trap
		client.TrapDriverWork = driverWork
		var (
			last   *gpu.Request
			next   func()
			onDone func(*gpu.Request)
		)
		next = func() {
			last.Release()
			done++
			client.Submit(gpu.Compute, size, onDone, nil)
		}
		onDone = func(r *gpu.Request) {
			if !r.Aborted {
				last = r
				eng.After(0, next)
			}
		}
		client.Submit(gpu.Compute, size, onDone, nil)
	})
	eng.RunFor(opts.Measure)
	return float64(done) / eng.Now().Seconds()
}

// noScheduler is a direct-access policy without the core package import
// (avoids an import cycle in tests that reuse this file's helper).
type noScheduler struct{}

func (noScheduler) Name() string                           { return "none" }
func (noScheduler) Start(*neon.Kernel)                     {}
func (noScheduler) TaskAdmitted(*neon.Task)                {}
func (noScheduler) TaskExited(*neon.Task)                  {}
func (noScheduler) ChannelActivated(cs *neon.ChannelState) { cs.Ch.Reg.SetPresent(true) }
func (noScheduler) MayRun(*neon.Task) bool                 { return true }
