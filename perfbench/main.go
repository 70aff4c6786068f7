// Command perfbench is the repository's benchmark. It assembles each
// workload's simulation stack from the layer packages' public
// constructors, runs it in fixed simulated-time slices, times every slice
// in host time, and checks the layers' invariants.
//
//	bash perfbench/run.sh --workload closed --seed 1 --seconds 30 --trace 0
//
// A run is a sequence of episodes, each in a fresh child process so that
// set-up, memory and goroutines never carry over from one to the next.
// Episodes repeat until --seconds of host time have passed (at least
// minUntraced of them). With --trace 1, traced episodes (CPU and
// allocation profiles, folded by layer) alternate with untraced ones.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). README.md describes every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"time"
)

const (
	// minUntraced is the fewest untraced episodes a run makes, so that
	// set-up time, live heap and every slice time are medians.
	minUntraced = 3
	// minTraced is the fewest traced episodes of a --trace 1 run.
	minTraced = 2
	// wallCap stops starting episodes well inside the 180 s a run may take.
	wallCap = 120 * time.Second
	// episodeTimeout bounds one child process; with wallCap it keeps a
	// run under 180 s.
	episodeTimeout = 50 * time.Second
	// allocProfileRate is runtime.MemProfileRate in traced episodes: one
	// sampled allocation per 8 KiB instead of 512 KiB, enough samples to
	// split a window's bytes by layer.
	allocProfileRate = 8 << 10
)

// metric is one reported figure.
type metric struct {
	name, unit string
}

// endToEnd are the --trace 0 metrics, in print order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"req_per_s", "req/s"},
	{"slice_ms_p50", "ms"},
	{"slice_ms_p95", "ms"},
	{"allocs_per_req", "allocs"},
	{"bytes_per_req", "B"},
	{"live_heap_mb", "MB"},
	{"served_frac", "ratio"},
	{"model.p99_ms", "sim_ms"},
	{"model.victim_p90_ms", "sim_ms"},
	{"model.goodput_per_s", "req/sim_s"},
	{"model.jain", "index"},
	{"model.util", "ratio"},
}

// counterMetrics are the exact layer counters among the --trace 1
// metrics; perLayer adds the folded shares, spans and trace overhead.
var counterMetrics = []metric{
	{"sim.live_procs", "count"},
	{"sim.pending_max", "count"},
	{"neon.faults_per_kreq", "count"},
	{"neon.kills", "count"},
	{"neon.mux.reattaches", "count"},
	{"neon.mux.evictions", "count"},
	{"neon.mux.attach_waits", "count"},
	{"neon.mux.max_attached", "count"},
	{"core.cycles", "count"},
	{"core.denials", "count"},
	{"core.max_lead_us", "sim_us"},
	{"core.lead_violations", "count"},
	{"fleet.queue_depth_end", "count"},
	{"fleet.cold_ms", "sim_ms"},
	{"traffic.arrivals", "count"},
	{"traffic.shed", "count"},
	{"traffic.aborted", "count"},
	{"traffic.flushes", "count"},
	{"traffic.batched", "count"},
	{"metrics.samples", "count"},
}

func perLayer() []metric {
	var out []metric
	for _, l := range layers {
		out = append(out, metric{l + ".cpu_frac", "ratio"})
	}
	for _, b := range []string{bucketHandoff, bucketGC, bucketOther} {
		out = append(out, metric{b + "_frac", "ratio"})
	}
	for _, l := range allocLayers {
		out = append(out, metric{l + ".alloc_frac", "ratio"})
	}
	out = append(out, metric{"span.build_ms", "ms"}, metric{"span.warmup_ms", "ms"}, metric{"span.readout_ms", "ms"})
	out = append(out, counterMetrics...)
	return append(out, metric{"trace_overhead", "ratio"})
}

// result is the summary line printed last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: closed, serve or storm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "host seconds to keep starting episodes for")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	child := flag.Bool("episode", false, "run one episode and print it as JSON (used by the benchmark itself)")
	traced := flag.Bool("traced", false, "with -episode: profile the measured window")
	flag.Parse()

	p, ok := plans[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %v)\n", *name, workloadNames)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	if *child {
		if *traced {
			runtime.MemProfileRate = allocProfileRate
		}
		ep, err := runEpisode(p, *seed, p.slices, p.slice, *traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(ep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, p, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run makes the episodes, checks them, and prints the metrics.
func run(name string, p plan, seed int64, seconds time.Duration, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	start := time.Now()
	var plain, traced []*episode
	for {
		enough := len(plain) >= minUntraced && (!trace || len(traced) >= minTraced)
		if enough && time.Since(start) >= seconds || time.Since(start) >= wallCap {
			break
		}
		doTrace := trace && len(traced) < len(plain)
		ep, err := spawnEpisode(self, name, seed, doTrace)
		if err != nil {
			return err
		}
		if doTrace {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}
	if len(plain) == 0 || trace && len(traced) == 0 {
		return fmt.Errorf("no episode finished within %v", wallCap)
	}

	all := append(slices.Clip(plain), traced...)
	var attempted, failed int64
	violation := ""
	for _, ep := range all {
		attempted += ep.Attempted
		if ep.Violation != "" {
			failed += ep.Attempted
			violation = ep.Violation
		}
	}
	// Every episode ran the same seed, so every model output and exact
	// counter must repeat bit for bit.
	for _, ep := range all[1:] {
		if violation == "" && (!reflect.DeepEqual(ep.Model, all[0].Model) || !reflect.DeepEqual(ep.Counters, all[0].Counters)) {
			violation = "model outputs or counters differ between episodes of one seed"
			failed = attempted
		}
	}

	values := endToEndValues(plain)
	list := endToEnd
	if trace {
		values = perLayerValues(plain, traced)
		list = perLayer()
	}
	res := result{Correct: violation == "", Attempted: attempted, Failed: failed,
		Metrics: make(map[string]valueInUnit, len(list))}
	for _, m := range list {
		res.Metrics[m.name] = valueInUnit{Value: values[m.name], Unit: m.unit}
	}

	env := environment(name, seed, seconds, trace, p, len(plain), len(traced))
	envLine, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envLine)
	for _, m := range list {
		fmt.Printf("%-7s %-24s %16s %-9s %s\n", name, m.name,
			strconv.FormatFloat(values[m.name], 'g', 8, 64), m.unit, sampleNote(m.name, len(plain), p.slices))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if violation != "" {
		return fmt.Errorf("invariant failed: %s", violation)
	}
	return nil
}

// spawnEpisode runs one episode in a child process and decodes it.
func spawnEpisode(self, name string, seed int64, traced bool) (*episode, error) {
	ctx, cancel := context.WithTimeout(context.Background(), episodeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "--episode", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--traced="+strconv.FormatBool(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("episode of %s (seed %d): %w", name, seed, err)
	}
	var ep episode
	if err := json.Unmarshal(out, &ep); err != nil {
		return nil, fmt.Errorf("episode of %s (seed %d): decode: %w", name, seed, err)
	}
	return &ep, nil
}

// endToEndValues computes the --trace 0 metrics from untraced episodes.
// All episodes of a run share the seed, so slice i simulates the same
// work in each; a slice's host time is its median over the episodes,
// which keeps a burst of load from elsewhere on the host from standing
// in for the stack's own cost. Throughput and the slice percentiles are
// taken over these per-slice medians.
func endToEndValues(eps []*episode) map[string]float64 {
	v := make(map[string]float64)
	var setup, heap []float64
	var mallocs, bytes uint64
	for _, ep := range eps {
		setup = append(setup, (ep.BuildMS+ep.WarmupMS)/1e3)
		heap = append(heap, ep.LiveHeapMB)
		mallocs += ep.Mallocs
		bytes += ep.AllocBytes
	}
	slice := sliceMedians(eps)
	var hostMS float64
	for _, s := range slice {
		hostMS += s
	}
	completed := float64(eps[0].Completed)
	v["setup_s"] = quantile(setup, 0.5)
	v["req_per_s"] = completed / (hostMS / 1e3)
	v["slice_ms_p50"] = quantile(slice, 0.5)
	v["slice_ms_p95"] = quantile(slice, 0.95)
	v["allocs_per_req"] = float64(mallocs) / completed / float64(len(eps))
	v["bytes_per_req"] = float64(bytes) / completed / float64(len(eps))
	v["live_heap_mb"] = quantile(heap, 0.5)
	for k, x := range eps[0].Model {
		v[k] = x
	}
	return v
}

// sliceMedians returns, for each slice index, the median host time of
// that slice over the episodes.
func sliceMedians(eps []*episode) []float64 {
	out := make([]float64, len(eps[0].SliceMS))
	col := make([]float64, len(eps))
	for i := range out {
		for e, ep := range eps {
			col[e] = ep.SliceMS[i]
		}
		out[i] = quantile(col, 0.5)
	}
	return out
}

// perLayerValues computes the --trace 1 metrics: folded shares from the
// traced episodes, spans from the untraced ones, counters from the first.
func perLayerValues(plain, traced []*episode) map[string]float64 {
	v := make(map[string]float64)
	cpu, alloc := map[string]int64{}, map[string]int64{}
	var cpuTotal, allocTotal int64
	for _, ep := range traced {
		for b, n := range ep.CPU {
			cpu[b] += n
			cpuTotal += n
		}
		for b, n := range ep.Alloc {
			alloc[b] += n
			allocTotal += n
		}
	}
	for _, l := range layers {
		v[l+".cpu_frac"] = share(cpu[l], cpuTotal)
	}
	for _, b := range []string{bucketHandoff, bucketGC, bucketOther} {
		v[b+"_frac"] = share(cpu[b], cpuTotal)
	}
	for _, l := range allocLayers {
		v[l+".alloc_frac"] = share(alloc[l], allocTotal)
	}
	var build, warm, read []float64
	for _, ep := range plain {
		build = append(build, ep.BuildMS)
		warm = append(warm, ep.WarmupMS)
		read = append(read, ep.ReadoutMS)
	}
	v["span.build_ms"] = quantile(build, 0.5)
	v["span.warmup_ms"] = quantile(warm, 0.5)
	v["span.readout_ms"] = quantile(read, 0.5)
	for k, x := range plain[0].Counters {
		v[k] = x
	}
	v["trace_overhead"] = endToEndValues(traced)["req_per_s"] / endToEndValues(plain)["req_per_s"]
	return v
}

func share(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(min(i, len(s)-1), 0)]
}

// sampleNote states how many samples a median or p95 rests on.
func sampleNote(name string, episodes, slices int) string {
	switch name {
	case "slice_ms_p50", "slice_ms_p95", "req_per_s":
		return fmt.Sprintf("(%d slices, each the median of %d episodes)", slices, episodes)
	case "setup_s", "live_heap_mb", "span.build_ms", "span.warmup_ms", "span.readout_ms":
		return fmt.Sprintf("(median of %d episodes)", episodes)
	}
	return ""
}

// environment records what the figures depend on besides the code.
func environment(name string, seed int64, seconds time.Duration, trace bool, p plan, plain, traced int) map[string]any {
	return map[string]any{
		"workload":           name,
		"seed":               seed,
		"seconds":            seconds.Seconds(),
		"trace":              trace,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"go_version":         runtime.Version(),
		"goos_goarch":        runtime.GOOS + "/" + runtime.GOARCH,
		"warmup_sim_ms":      p.warmup.Seconds() * 1e3,
		"slice_sim_ms":       p.slice.Seconds() * 1e3,
		"slices_per_ep":      p.slices,
		"episodes":           plain,
		"traced_episodes":    traced,
		"cpu_profile_hz":     cpuProfileHz,
		"alloc_profile_rate": allocProfileRate,
	}
}
