// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, regenerating the measurement and reporting the
// headline quantity as a custom metric. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use the quick scale so a full -bench=. pass stays in minutes;
// cmd/experiments runs the same code at the calibrated default scale and
// EXPERIMENTS.md records those numbers.
package ptemagnet_test

import (
	"context"
	"testing"

	"ptemagnet"
)

const benchSeed = 11

func benchScale() ptemagnet.Scale { return ptemagnet.QuickScale() }

// benchEngine runs each experiment's scenarios through a GOMAXPROCS-sized
// worker pool; the engine's determinism contract keeps every reported
// metric identical to a serial run.
var benchEngine = ptemagnet.NewEngine(0)

// runExperiment runs one registered experiment at the bench scale and seed
// through benchEngine and returns its typed result.
func runExperiment[R ptemagnet.ExperimentResult](b *testing.B, name string) R {
	b.Helper()
	r, err := ptemagnet.RunExperiment(context.Background(), name,
		ptemagnet.WithEngine(benchEngine), ptemagnet.WithScale(benchScale()), ptemagnet.WithSeed(benchSeed))
	if err != nil {
		b.Fatal(err)
	}
	return r.(R)
}

// BenchmarkTable1_FragmentationEffects regenerates Table 1 (§3.3): pagerank
// colocated with stress-ng versus standalone on the default kernel.
func BenchmarkTable1_FragmentationEffects(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.Table1Result](b, "table1")
		slowdown := float64(r.Colocated.Task.SteadyCycles)/float64(r.Isolation.Task.SteadyCycles) - 1
		b.ReportMetric(slowdown*100, "slowdown_%")
		b.ReportMetric(r.Colocated.Task.Frag.Mean, "frag_colocated")
		b.ReportMetric(r.Isolation.Task.Frag.Mean, "frag_isolation")
	}
}

// BenchmarkFig5_HostPTFragmentation regenerates Figure 5: host-PT
// fragmentation per benchmark with the objdet co-runner, default versus
// PTEMagnet. (Shares runs with Figure 6; the reported metrics are the
// fragmentation means.)
func BenchmarkFig5_HostPTFragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		def, mag, err := ptemagnet.RunScenarioPairCtx(context.Background(), ptemagnet.Scenario{
			Benchmark: "pagerank", Corunners: []string{"objdet"},
			Scale: benchScale(), Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(def.Task.Frag.Mean, "frag_default")
		b.ReportMetric(mag.Task.Frag.Mean, "frag_ptemagnet")
	}
}

// BenchmarkFig6_SpeedupWithObjdet regenerates Figure 6: PTEMagnet's
// performance improvement with the objdet co-runner, geomean across the
// full benchmark suite.
func BenchmarkFig6_SpeedupWithObjdet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.SuiteResult](b, "objdet-suite")
		b.ReportMetric(r.GeomeanSpeedup, "geomean_speedup_%")
		max := 0.0
		for _, e := range r.Entries {
			if e.SpeedupPct > max {
				max = e.SpeedupPct
			}
		}
		b.ReportMetric(max, "max_speedup_%")
	}
}

// BenchmarkFig7_SpeedupWithCombination regenerates Figure 7: PTEMagnet's
// improvement under the full Table 3 co-runner combination.
func BenchmarkFig7_SpeedupWithCombination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.SuiteResult](b, "combination-suite")
		b.ReportMetric(r.GeomeanSpeedup, "geomean_speedup_%")
	}
}

// BenchmarkTable4_HardwareMetrics regenerates Table 4 (§6.3): pagerank +
// objdet, PTEMagnet versus default, hardware-counter changes.
func BenchmarkTable4_HardwareMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.Table4Result](b, "table4")
		speedup := float64(r.Default.Task.SteadyCycles)/float64(r.Magnet.Task.SteadyCycles) - 1
		b.ReportMetric(speedup*100, "speedup_%")
		walkReduction := 1 - float64(r.Magnet.Walk.WalkCycles)/float64(r.Default.Walk.WalkCycles)
		b.ReportMetric(walkReduction*100, "walk_cycle_reduction_%")
	}
}

// BenchmarkSec62_ReservationWaste regenerates the §6.2 study for pagerank
// (real workload) and the sparse adversary.
func BenchmarkSec62_ReservationWaste(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real, err := ptemagnet.RunScenarioCtx(context.Background(), ptemagnet.Scenario{
			Benchmark: "pagerank", Corunners: []string{"objdet"},
			Policy: ptemagnet.PolicyPTEMagnet,
			Scale:  benchScale(), Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		adv, err := ptemagnet.RunScenarioCtx(context.Background(), ptemagnet.Scenario{
			Benchmark: "sparse", Policy: ptemagnet.PolicyPTEMagnet,
			Scale: benchScale(), Seed: benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(real.UnusedMax)/float64(real.FootprintPages), "pagerank_waste_%")
		b.ReportMetric(100*float64(adv.UnusedMax)/float64(adv.FootprintPages), "adversary_waste_%")
	}
}

// BenchmarkSec64_AllocationLatency regenerates the §6.4 microbenchmark:
// touch every page of a huge array under both policies.
func BenchmarkSec64_AllocationLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.Sec64Result](b, "sec64")
		b.ReportMetric(r.ImprovementPct, "improvement_%")
		b.ReportMetric(float64(r.BuddyCallsDefault)/float64(r.BuddyCallsMagnet), "buddy_call_ratio")
	}
}

// BenchmarkAblation_Granularity sweeps the reservation group size, the §4.1
// design choice (8 pages = one cache block of PTEs).
func BenchmarkAblation_Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.GranularityResult](b, "granularity")
		for _, e := range r.Entries {
			if e.GroupPages == 8 {
				b.ReportMetric(e.Frag, "frag_at_8_pages")
				b.ReportMetric(e.SpeedupPct, "speedup_at_8_pages_%")
			}
		}
	}
}

// BenchmarkAblation_PaRTLocking compares fine-grained per-node locking
// against a coarse table lock under concurrent faults (§4.2).
func BenchmarkAblation_PaRTLocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.LockingResult](b, "locking")
		b.ReportMetric(r.FineNsPerOp, "fine_ns/fault")
		b.ReportMetric(r.CoarseNsPerOp, "coarse_ns/fault")
	}
}

// BenchmarkAblation_ReclaimWatermark sweeps the §4.3 reclaim threshold.
func BenchmarkAblation_ReclaimWatermark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.ReclaimResult](b, "reclaim")
		b.ReportMetric(float64(r.Entries[0].ReclaimedReservations), "reclaimed_at_0.3")
		b.ReportMetric(float64(r.Entries[3].ReclaimedReservations), "reclaimed_at_0.9")
	}
}

// BenchmarkBaseline_CAPaging contrasts the best-effort CA-paging baseline
// (related work §7) with PTEMagnet as colocation pressure rises.
func BenchmarkBaseline_CAPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.CAPagingResult](b, "capaging")
		last := r.Entries[len(r.Entries)-1]
		b.ReportMetric(last.FragCA, "combo_frag_capaging")
		b.ReportMetric(last.FragMagnet, "combo_frag_ptemagnet")
	}
}

// BenchmarkBaseline_THP contrasts transparent huge pages (§2.3) with
// PTEMagnet across colocation levels.
func BenchmarkBaseline_THP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.THPResult](b, "thp")
		b.ReportMetric(r.Entries[0].THPCoverage*100, "solo_thp_coverage_%")
		b.ReportMetric(r.Entries[len(r.Entries)-1].THPCoverage*100, "combo_thp_coverage_%")
	}
}

// stepOnly hides a Program's StepBatch so the machine must drive it through
// the one-access-per-batch compatibility adapter — the pre-batching path.
type stepOnly struct{ p ptemagnet.Program }

func (s stepOnly) Name() string                                    { return s.p.Name() }
func (s stepOnly) FootprintBytes() uint64                          { return s.p.FootprintBytes() }
func (s stepOnly) Setup(env ptemagnet.Env) error                   { return s.p.Setup(env) }
func (s stepOnly) Step(env ptemagnet.Env) (ptemagnet.Access, bool) { return s.p.Step(env) }
func (s stepOnly) InitDone() bool                                  { return s.p.InitDone() }

// benchPipeline runs a solo pagerank to completion through the public
// facade, optionally stripping the native StepBatch to force the adapter.
func benchPipeline(b *testing.B, legacy bool) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := ptemagnet.DefaultMachineConfig()
		cfg.HostMemBytes = 256 << 20
		cfg.GuestMemBytes = 128 << 20
		cfg.Quantum = 256
		m, err := ptemagnet.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var p ptemagnet.Program = ptemagnet.NewPagerank(ptemagnet.GraphConfig{
			DatasetBytes: 8 << 20, Accesses: 200_000, Seed: benchSeed,
		})
		if legacy {
			p = stepOnly{p}
		}
		if _, err := m.AddTask(p, ptemagnet.RolePrimary); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.RunWith(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFacadeBatched measures the redesigned hot path end to end
// through the public API: native batched generation into the batched
// machine loop.
func BenchmarkPipelineFacadeBatched(b *testing.B) { benchPipeline(b, false) }

// BenchmarkPipelineFacadeAdapter measures the same run with StepBatch
// hidden, forcing the legacy one-access-per-batch adapter for comparison.
func BenchmarkPipelineFacadeAdapter(b *testing.B) { benchPipeline(b, true) }

// BenchmarkExtension_FiveLevelPaging measures PTEMagnet under LA57
// five-level paging (the §2.5 migration: nested walks grow to 35 accesses).
func BenchmarkExtension_FiveLevelPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runExperiment[ptemagnet.FiveLevelResult](b, "fivelevel")
		b.ReportMetric(r.Entries[0].SpeedupMagnet, "speedup_4level_%")
		b.ReportMetric(r.Entries[1].SpeedupMagnet, "speedup_5level_%")
	}
}
