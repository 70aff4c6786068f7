package workload

import (
	"time"

	"repro/internal/gpu"
	"repro/internal/neon"
	"repro/internal/sim"
	"repro/internal/userlib"
)

// LaunchInfiniteKernel starts the paper's denial-of-service adversary: a
// task that behaves normally for warmup rounds, then submits a compute
// request that never terminates. Under direct access this hangs the
// device; under the protected schedulers the kernel must identify and
// kill the task.
//
// The warm-up rounds are a continuation chain on userlib.Client.Submit,
// one submit-and-wait request per round, each resubmitted from the
// previous one's completion; the task's thread lives only for setup.
func LaunchInfiniteKernel(k *neon.Kernel, warmupRounds int) *App {
	spec := Spec{Name: "InfiniteKernel", Area: "Adversarial", CPU: 2 * time.Microsecond,
		Mix: []Req{{Size: 50 * time.Microsecond, Kind: gpu.Compute, Count: 1}}}
	a := &App{Spec: spec}
	a.Task = k.NewTask(spec.Name)
	userlib.OpenAsync(k, a.Task, spec.Name, spec.ChannelKinds(), func(c *userlib.Client, err error) {
		if err != nil {
			a.setupErr = err
			return
		}
		eng := k.Engine()
		var (
			rounds int
			start  sim.Time
			last   *gpu.Request
			submit func()
		)
		account := func() {
			last.Release()
			a.Rounds++
			a.RoundTime += eng.Now().Sub(start)
			rounds++
			submit()
		}
		done := func(r *gpu.Request) {
			if r.Aborted {
				return
			}
			last = r
			eng.After(0, account)
		}
		submit = func() {
			if !a.Task.Alive {
				return
			}
			if rounds < warmupRounds {
				start = eng.Now()
				c.Submit(gpu.Compute, 50*time.Microsecond, done, nil)
				return
			}
			// The attack: an infinite loop on the device.
			c.Submit(gpu.Compute, gpu.Forever, nil, nil)
		}
		submit()
	})
	return a
}

// HogResult reports what a channel-hog adversary managed to grab.
type HogResult struct {
	ContextsCreated int
	DeniedAt        error // the error that finally stopped it, if any
}

// LaunchChannelHog starts the Section 6.3 adversary: it greedily creates
// contexts (each with a compute and a DMA channel, as the paper observed)
// until the device or the OS policy refuses. The result gate opens when
// it is done grabbing.
func LaunchChannelHog(k *neon.Kernel, limit int) (*neon.Task, *HogResult, *sim.Gate) {
	t := k.NewTask("ChannelHog")
	res := &HogResult{}
	done := k.Engine().NewGate("hog-done")
	t.Go("main", func(p *sim.Proc) {
		for i := 0; i < limit; i++ {
			ctx, err := k.CreateContext(p, t, "hog")
			if err != nil {
				res.DeniedAt = err
				break
			}
			if _, err := k.CreateChannel(p, t, ctx, gpu.Compute); err != nil {
				res.DeniedAt = err
				break
			}
			if _, err := k.CreateChannel(p, t, ctx, gpu.DMA); err != nil {
				res.DeniedAt = err
				break
			}
			res.ContextsCreated++
		}
		done.Open()
		for t.Alive {
			p.Sleep(time.Millisecond)
		}
	})
	return t, res, done
}

// GreedyBatcher returns a spec for the paper's introduction adversary: an
// application that batches its work into very large requests to hog a
// work-conserving device.
func GreedyBatcher(batch sim.Duration) Spec {
	s := Throttle(batch, 0)
	s.Name = "GreedyBatcher"
	s.Area = "Adversarial"
	return s
}
