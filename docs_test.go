package repro

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docSources is the documentation graph whose links must never dangle:
// doc.go → README.md → DESIGN.md / EXPERIMENTS.md / SCHEDULERS.md /
// PERFORMANCE.md.
var docSources = []string{
	"doc.go", "README.md", "DESIGN.md", "EXPERIMENTS.md",
	"SCHEDULERS.md", "PERFORMANCE.md",
}

// TestDocCrossReferences pins the documentation graph: every markdown
// file and every committed trajectory point (BENCH_<n>.json) that a
// doc source points at must exist.
func TestDocCrossReferences(t *testing.T) {
	ref := regexp.MustCompile(`[A-Za-z0-9_-]+\.md|BENCH_[0-9]+\.json`)

	for _, src := range docSources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, target := range ref.FindAllString(string(data), -1) {
			if _, err := os.Stat(target); err != nil {
				t.Errorf("%s references %s, which does not exist", src, target)
			}
		}
	}
}

// TestDocSectionReferences resolves in-document section pointers:
// every "DESIGN.md §N" written anywhere in the doc graph must match an
// actual "## N." heading in DESIGN.md, so renumbering or deleting a
// section without fixing its referrers fails the build.
func TestDocSectionReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile(`(?m)^## ([0-9]+)\.`)
	sections := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered '## N.' sections")
	}
	secRef := regexp.MustCompile(`DESIGN\.md §([0-9]+)`)
	for _, src := range docSources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, m := range secRef.FindAllStringSubmatch(string(data), -1) {
			if !sections[m[1]] {
				t.Errorf("%s references DESIGN.md §%s, which has no '## %s.' heading",
					src, m[1], m[1])
			}
		}
	}
}

// TestPerformanceDocCoversGateBenchmarks pins PERFORMANCE.md to the
// bench machinery it documents: the gate benchmarks, the regeneration
// tool, and the golden gate must be mentioned by name, so renaming any
// of them without updating the methodology doc fails the build.
func TestPerformanceDocCoversGateBenchmarks(t *testing.T) {
	data, err := os.ReadFile("PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"BenchmarkSimEngine", "BenchmarkRequestPath", "BenchmarkDFQCycle",
		"BenchmarkDFQCycleTenants", "BenchmarkBoardReconcile",
		"BenchmarkRequestPathAsync", "BenchmarkClosedLoopSync",
		"BenchmarkDispatcherDrain",
		"cmd/benchjson", "quick.golden", "BENCH_6.json", "BENCH_7.json",
		"BENCH_8.json", "BENCH_9.json", "BENCH_12.json", "BENCH_13.json",
		"BenchmarkDFQEpisodeTenants1e4", "BenchmarkMuxReattach", "BENCH_14.json",
		"BenchmarkEngagedFault", "BenchmarkServerBuild1e3", "BENCH_15.json",
		"DESIGN.md §11", "DESIGN.md §12",
		"DESIGN.md §13", "DESIGN.md §14",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("PERFORMANCE.md does not mention %s", want)
		}
	}
}

// TestExperimentsDocCoversRegistry keeps EXPERIMENTS.md in step with
// the CLI: every experiment ID runnable via -exp must appear in the
// regeneration guide.
func TestExperimentsDocCoversRegistry(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, id := range []string{
		"table1", "fig2", "sec3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "protect", "sec63", "ablation-stats",
		"ablation-params", "fleet", "serve", "hetero", "tiers",
		"-exp scale", "-tenants", "-exp policy", "-policy", "-deep",
	} {
		if !strings.Contains(doc, id) {
			t.Errorf("EXPERIMENTS.md does not document experiment %q", id)
		}
	}
}

// TestDesignDocCovers pins each DESIGN.md section's anchor terms: the
// APIs, rules, and every test and benchmark a section cites as evidence
// must keep their names, or the section silently rots.
func TestDesignDocCovers(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, sec := range []struct {
		name    string
		anchors []string
	}{
		// §11: the queue seam, pool APIs, and differential tests.
		{"EngineInternals", []string{
			"## 11.", "NextAfterNow", "LegacyHeapQueue", "NewEngineWithQueue",
			"DefaultEventQueue", "TestDifferentialEventStorm",
			"TestDifferentialQueueTables", "TestPropertyTimerStopRecycledGeneration",
			"Request.Release", "Request.Pin",
		}},
		// §12: the ledger seam and the index/board types.
		{"ScaleIndex", []string{
			"## 12.", "core.FlowIndex", "core.FlowID", "core.DefaultDFQLedger",
			"LinearLedger", "NewDisengagedFairQueueingWithLedger",
			"fleet.NewBoardWith", "fleet.Config.BoardEpoch",
			"TestDifferentialDFQIndex", "TestDifferentialLedgerTables",
			"FuzzDFQIndexOps", "TestFlowIndexStaleHandles",
			"TestBoardShardCountInvariance", "TestBoardEpochLeadBound",
			"TestBoardShardUnderflowPanic", "BenchmarkDFQCycleTenants",
			"neon.Task.Sched", "neon.Kernel.AppendTasks", "DrainResult.DrainedAt",
			"BenchmarkDFQEpisodeTenants1e4", "TestDrainAllocatesNothingAt1e4Tasks",
		}},
		// §13: the virtual-context table, the attach machine, and the
		// board batch types.
		{"Mux", []string{
			"## 13.", "neon.VContext", "Kernel.OpenVirtual", "MuxStats",
			"gpu.Device.ReleaseContext", "gpu.Device.CompletionObserver",
			"ContextSwitch", "ErrNoContexts",
			"core.EpisodeEntry", "Board.ReconcileEpisodeBatch",
			"TestMuxHostsStormPastContextCap", "TestMuxKillMidBacklogRecyclesSlot",
			"TestMuxTightPoolStorm", "TestBoardEagerClampDifferential",
			"BenchmarkBoardReconcile", "RunScaleFullCell",
			"VContext.AcquireAsync", "sim.Proc.Park", "sim.Proc.Resume",
			"inline-resume rule", "TestAttachKilledAtEachStepAsync",
			"TestAttachKilledAtEachStepBlocking",
			"TestBlockingReattachAllocatesOnlyTheRebuild",
			"Kernel.OpenVirtualAsync",
		}},
		// §14: the one submission path, its slow-path rules, the fault
		// machine, and the batch staging surface.
		{"Submission", []string{
			"## 14.", "userlib.Client.Submit", "gpu.Request.OnDone",
			"mmio.StoreAsync", "gpu.Request.DoneGate", "committed-fault rule",
			"mmio.Page.StoreFaulting", "peek rule",
			"neon.VContext.Peek", "userlib.BeginBatch", "Batch.Flush",
			"traffic.Config.BatchDrain", "StreamStats.Flushes",
			"TestSubmitAsyncRefusesEngagedChannel",
			"TestSubmitAsyncRefusesTrapPerRequest",
			"TestSubmitCommitsFaultAtRefusal",
			"TestBatchDrainOneDoorbellPerBacklog",
			"TestBatchDrainUnderDFQEngagement", "TestBatchDrainStampsSojourns",
			"BenchmarkRequestPathAsync", "BenchmarkClosedLoopSync",
			"BenchmarkDispatcherDrainBatched",
			"sim.Gate.Notify", "pin-until-delivery rule",
			"sim.Engine.Activations", "TestNotifyJoinsProcessFIFO",
			"TestServeRunsOnContinuations", "TestStormRunsOnContinuations",
			"mmio.Page.StoreFaultingAsync", "neon.Scheduler.MayRun",
			"mmio.FaultHandler", "TestFaultMachineTimeline",
			"TestFaultKilledAtEachStepEngine", "TestFaultKilledAtEachStepBlocking",
			"TestDispatcherFaultKilledAtEachStep", "BenchmarkEngagedFault",
			"fleet.Tenant.ClientAsync",
			"userlib.OpenAsync", "fleet.Fleet.Launch", "TestSubmitAttachesDetachedContext",
			"TestSubmitFaultReturnsInline", "TestClosedRunsOnContinuations",
			"TestAppKilledAtEachSlowStep", "TestTenantKilledAtEachSlowStep",
		}},
		// §15: the policy types and the allocator's enforcement seams.
		{"Policy", []string{
			"## 15.", "policy.Policy", "policy.Snapshot", "policy.Targets",
			"policy.Static", "policy.MaxMin", "policy.Hierarchical",
			"policy.CostMin", "policy.ClassPreference", "policy.TierBounds",
			"policy.DefaultPrices", "fleet.Config.AllocPolicy",
			"fleet.DefaultAllocEvery", "Tenant.EffectiveWeight",
			"fleet.OnTargets", "workload.TenantSpec.Validate",
			"core.LeadBound", "TestReweightingPreservesLeadBound",
			"TestAllocatorStaticIsInert", "TestStaticPolicyTiersByteIdentical",
		}},
	} {
		t.Run(sec.name, func(t *testing.T) {
			for _, want := range sec.anchors {
				if !strings.Contains(doc, want) {
					t.Errorf("DESIGN.md does not mention %s", want)
				}
			}
		})
	}
}
