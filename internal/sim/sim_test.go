package sim

import (
	"context"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
)

const testSeed = 11

func TestRegistryCoversAllNames(t *testing.T) {
	sc := QuickScale()
	for _, b := range append(append([]string{}, Benchmarks...), "allocmicro", "sparse") {
		p, err := NewBenchmark(b, sc, 1)
		if err != nil {
			t.Errorf("benchmark %s: %v", b, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("benchmark %s has empty name", b)
		}
	}
	for _, c := range append(append([]string{}, Corunners...), "stress-ng") {
		if _, err := NewCorunner(c, sc, 1); err != nil {
			t.Errorf("corunner %s: %v", c, err)
		}
	}
	if _, err := NewBenchmark("nope", sc, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := NewCorunner("nope", sc, 1); err == nil {
		t.Error("unknown corunner accepted")
	}
}

func TestRunProducesCompleteResult(t *testing.T) {
	res, err := RunCtx(context.Background(), Scenario{
		Benchmark: "pagerank", Corunners: []string{"objdet"},
		Policy: guestos.PolicyPTEMagnet, Scale: QuickScale(), Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.SteadyCycles == 0 {
		t.Error("no steady cycles")
	}
	if res.Walk.Walks == 0 {
		t.Error("no walks")
	}
	if res.FootprintPages == 0 {
		t.Error("no footprint")
	}
	if res.MagnetStats.Created == 0 {
		t.Error("PTEMagnet created no reservations")
	}
}

func TestRunPairPoliciesDiffer(t *testing.T) {
	def, mag, err := RunPairCtx(context.Background(), Scenario{
		Benchmark: "pagerank", Corunners: []string{"objdet"},
		Scale: QuickScale(), Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if def.Scenario.Policy == mag.Scenario.Policy {
		t.Error("pair ran one policy twice")
	}
	if mag.Task.Frag.Mean >= def.Task.Frag.Mean {
		t.Errorf("magnet frag %.2f >= default %.2f", mag.Task.Frag.Mean, def.Task.Frag.Mean)
	}
}

func TestTable1ShapeHolds(t *testing.T) {
	r, err := engine.Execute(context.Background(), nil, Table1Set(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	// Shape assertions per DESIGN.md: colocation raises execution time,
	// walk cycles, host-PT memory traffic and fragmentation; TLB misses
	// stay roughly flat.
	if r.Colocated.Task.SteadyCycles <= r.Isolation.Task.SteadyCycles {
		t.Error("colocation did not slow pagerank down")
	}
	if r.Colocated.Walk.WalkCycles <= r.Isolation.Walk.WalkCycles {
		t.Error("colocation did not inflate walk cycles")
	}
	if r.Colocated.Walk.MemServed(1) <= r.Isolation.Walk.MemServed(1) {
		t.Error("colocation did not inflate host-PT memory accesses")
	}
	if r.Colocated.Task.Frag.Mean <= r.Isolation.Task.Frag.Mean {
		t.Error("colocation did not raise fragmentation")
	}
	tlbDelta := float64(r.Colocated.Walk.TLBMisses()) - float64(r.Isolation.Walk.TLBMisses())
	if tlbDelta/float64(r.Isolation.Walk.TLBMisses()) > 0.05 {
		t.Errorf("TLB misses changed by more than 5%%: %v vs %v",
			r.Colocated.Walk.TLBMisses(), r.Isolation.Walk.TLBMisses())
	}
	if len(r.Rows) != 9 || !strings.Contains(r.String(), "Execution time") {
		t.Error("table rendering incomplete")
	}
}

func TestObjdetSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in full mode only")
	}
	// Two benchmarks are enough to validate the suite mechanics.
	r, err := engine.Execute(context.Background(), nil, SuiteSet([]string{"pagerank", "xz"}, []string{"objdet"}, QuickScale(), testSeed, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 2 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	for _, e := range r.Entries {
		if e.FragMagnet > 1.5 {
			t.Errorf("%s: magnet frag %.2f", e.Benchmark, e.FragMagnet)
		}
		if e.FragMagnet >= e.FragDefault {
			t.Errorf("%s: frag not reduced", e.Benchmark)
		}
		if e.SpeedupPct < -1 {
			t.Errorf("%s slowed down by %.1f%% — paper guarantees no degradation", e.Benchmark, -e.SpeedupPct)
		}
	}
	if !strings.Contains(r.String(), "geomean") {
		t.Error("suite rendering incomplete")
	}
}

func TestTable4ShapeHolds(t *testing.T) {
	r, err := engine.Execute(context.Background(), nil, Table4Set(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if r.Magnet.Task.Frag.Mean >= r.Default.Task.Frag.Mean {
		t.Error("PTEMagnet did not reduce fragmentation")
	}
	if r.Magnet.Task.SteadyCycles >= r.Default.Task.SteadyCycles {
		t.Error("PTEMagnet did not reduce execution time")
	}
	if r.Magnet.Walk.Cycles[1] >= r.Default.Walk.Cycles[1] {
		t.Error("PTEMagnet did not reduce host-PT cycles")
	}
	if len(r.Rows) != 6 {
		t.Errorf("rows = %d", len(r.Rows))
	}
}

func TestSec62Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in full mode only")
	}
	sc := QuickScale()
	// One real benchmark + the adversary suffices for mechanics.
	res, err := RunCtx(context.Background(), Scenario{
		Benchmark: "pagerank", Corunners: []string{"objdet"},
		Policy: guestos.PolicyPTEMagnet, Scale: sc, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := sec62Entry("pagerank", res)
	if e.MaxUnusedPct > 1.0 {
		t.Errorf("pagerank peak unused = %.2f%% of footprint; paper bound is ~0.2%%", e.MaxUnusedPct)
	}
	adv, err := RunCtx(context.Background(), Scenario{Benchmark: "sparse", Policy: guestos.PolicyPTEMagnet, Scale: sc, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	a := sec62Entry("sparse", adv)
	if a.MaxUnusedPct < 500 {
		t.Errorf("adversary peak unused = %.0f%%, want ~700%%", a.MaxUnusedPct)
	}
}

func TestSec64Quick(t *testing.T) {
	r, err := engine.Execute(context.Background(), nil, Sec64Set(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	// PTEMagnet must not slow allocation down and must slash buddy calls.
	if float64(r.Magnet.Task.Cycles) > float64(r.Default.Task.Cycles)*1.005 {
		t.Errorf("PTEMagnet alloc micro slower: %d vs %d", r.Magnet.Task.Cycles, r.Default.Task.Cycles)
	}
	if r.BuddyCallsMagnet*4 > r.BuddyCallsDefault {
		t.Errorf("buddy calls: magnet %d vs default %d; expected ~8x fewer",
			r.BuddyCallsMagnet, r.BuddyCallsDefault)
	}
	if !strings.Contains(r.String(), "buddy calls") {
		t.Error("rendering incomplete")
	}
}

func TestGranularityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep run in full mode only")
	}
	r, err := engine.Execute(context.Background(), nil, GranularitySet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 5 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	// Fragmentation must be non-increasing with group size up to 8.
	frag := map[int]float64{}
	for _, e := range r.Entries {
		frag[e.GroupPages] = e.Frag
	}
	if frag[8] > frag[2] {
		t.Errorf("frag at 8 pages (%.2f) worse than at 2 (%.2f)", frag[8], frag[2])
	}
	if frag[8] > 1.3 {
		t.Errorf("frag at the design point = %.2f, want ~1", frag[8])
	}
}

func TestLockingAblation(t *testing.T) {
	r := RunLockingAblation(4, 2000)
	if r.FineNsPerOp <= 0 || r.CoarseNsPerOp <= 0 {
		t.Fatalf("bad measurement: %+v", r)
	}
	if !strings.Contains(r.String(), "fine-grained") {
		t.Error("rendering incomplete")
	}
}

func TestReclaimSweepQuick(t *testing.T) {
	r, err := engine.Execute(context.Background(), nil, ReclaimSweepSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	// The tightest watermark must reclaim at least as much as the loosest.
	if r.Entries[0].ReclaimedReservations < r.Entries[3].ReclaimedReservations {
		t.Errorf("watermark 0.3 reclaimed %d < watermark 0.9 reclaimed %d",
			r.Entries[0].ReclaimedReservations, r.Entries[3].ReclaimedReservations)
	}
}

func TestThresholdDemo(t *testing.T) {
	r, err := RunThresholdDemo(QuickScale(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WithPart) != 1 || r.WithPart[0] != "pagerank" {
		t.Errorf("WithPart = %v, want [pagerank]", r.WithPart)
	}
	if len(r.WithoutPart) != 4 {
		t.Errorf("WithoutPart = %v", r.WithoutPart)
	}
}

func TestCAPagingComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run in full mode only")
	}
	r, err := engine.Execute(context.Background(), nil, CAPagingSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 3 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	solo, combo := r.Entries[0], r.Entries[2]
	// Solo, CA paging keeps fragmentation low (close to PTEMagnet).
	if solo.FragCA > solo.FragDefault {
		t.Errorf("solo: CA frag %.2f worse than default %.2f", solo.FragCA, solo.FragDefault)
	}
	// Under the aggressive combination, CA paging's fragmentation rises
	// well above PTEMagnet's guaranteed ~1.
	if combo.FragCA < combo.FragMagnet+0.5 {
		t.Errorf("combination: CA frag %.2f did not degrade vs PTEMagnet %.2f", combo.FragCA, combo.FragMagnet)
	}
	if combo.FragMagnet > 1.2 {
		t.Errorf("PTEMagnet frag %.2f not insensitive to colocation", combo.FragMagnet)
	}
	if !strings.Contains(r.String(), "CA paging") {
		t.Error("rendering incomplete")
	}
}

func TestTHPComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run in full mode only")
	}
	r, err := engine.Execute(context.Background(), nil, THPSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	solo := r.Entries[0]
	// Solo, with plenty of order-9 blocks, THP must cover most memory and
	// deliver a real speedup (shorter guest walks, packed hPTEs).
	if solo.THPCoverage < 0.7 {
		t.Errorf("solo THP coverage = %.0f%%", solo.THPCoverage*100)
	}
	if solo.SpeedupTHP <= 0 {
		t.Errorf("solo THP speedup = %.1f%%", solo.SpeedupTHP)
	}
	// PTEMagnet must stay positive at every level.
	for _, e := range r.Entries {
		if e.SpeedupMagnet <= -0.5 {
			t.Errorf("%s: PTEMagnet speedup %.1f%%", e.Colocation, e.SpeedupMagnet)
		}
	}
	// The sparse-touch row must show the §2.3 internal fragmentation:
	// THP commits far more memory than the default allocator.
	sparse := r.Entries[3]
	if sparse.RSSTHPPages < sparse.RSSDefaultPages*4 {
		t.Errorf("sparse-touch RSS %d vs default %d; internal fragmentation missing",
			sparse.RSSTHPPages, sparse.RSSDefaultPages)
	}
	if !strings.Contains(r.String(), "THP") {
		t.Error("rendering incomplete")
	}
}

func TestFiveLevelComparisonQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison run in full mode only")
	}
	r, err := engine.Execute(context.Background(), nil, FiveLevelSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 2 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	four, five := r.Entries[0], r.Entries[1]
	if four.Levels != 4 || five.Levels != 5 {
		t.Fatalf("levels = %d,%d", four.Levels, five.Levels)
	}
	// Five-level paging lengthens walks for the default kernel.
	if five.WalkCyclesDefault <= four.WalkCyclesDefault {
		t.Errorf("5-level default walks %d not longer than 4-level %d",
			five.WalkCyclesDefault, four.WalkCyclesDefault)
	}
	// PTEMagnet keeps helping at depth 5.
	if five.SpeedupMagnet <= 0 {
		t.Errorf("5-level PTEMagnet speedup %.1f%%", five.SpeedupMagnet)
	}
	if !strings.Contains(r.String(), "five-level") {
		t.Error("rendering incomplete")
	}
}

func TestStringRenderings(t *testing.T) {
	// Exercise the report formatters over synthetic data.
	s := SuiteResult{
		Corunners:      []string{"objdet"},
		Entries:        []SuiteEntry{{Benchmark: "pagerank", FragDefault: 3.3, FragMagnet: 1.0, SpeedupPct: 4.8}},
		GeomeanSpeedup: 4.8,
	}
	if out := s.String(); !strings.Contains(out, "pagerank") || !strings.Contains(out, "geomean") {
		t.Errorf("SuiteResult.String: %q", out)
	}
	sec := Sec62Result{
		Entries:   []Sec62Entry{{Benchmark: "pagerank", MaxUnusedPages: 12, FootprintPages: 12288, MaxUnusedPct: 0.098}},
		Adversary: Sec62Entry{Benchmark: "sparse", MaxUnusedPages: 10752, FootprintPages: 1536, MaxUnusedPct: 700},
	}
	if out := sec.String(); !strings.Contains(out, "sparse") {
		t.Errorf("Sec62Result.String: %q", out)
	}
	thp := THPResult{Entries: []THPEntry{{Colocation: "solo", SpeedupTHP: 4.7, THPCoverage: 1}}}
	if out := thp.String(); !strings.Contains(out, "solo") {
		t.Errorf("THPResult.String: %q", out)
	}
	ca := CAPagingResult{Entries: []CAPagingEntry{{Colocation: "solo", FragDefault: 1.9, FragCA: 1.9, FragMagnet: 1}}}
	if out := ca.String(); !strings.Contains(out, "solo") {
		t.Errorf("CAPagingResult.String: %q", out)
	}
	fl := FiveLevelResult{Entries: []FiveLevelEntry{{Levels: 4}, {Levels: 5}}}
	if out := fl.String(); !strings.Contains(out, "five-level") {
		t.Errorf("FiveLevelResult.String: %q", out)
	}
}

func TestDefaultScaleSane(t *testing.T) {
	sc := DefaultScale()
	if sc.GuestMemBytes >= sc.HostMemBytes {
		t.Error("guest memory not smaller than host")
	}
	if sc.DatasetBytes >= sc.GuestMemBytes {
		t.Error("dataset does not fit guest memory")
	}
	if sc.LLCBytes == 0 {
		t.Error("default scale does not pin the LLC (calibration requires it)")
	}
	// The calibrated footprint-to-LLC ratio stays in the paper's regime
	// (16GB / 25MB ≈ 640x; anything > 64x keeps hPTEs memory-bound).
	if sc.DatasetBytes/sc.LLCBytes < 64 {
		t.Errorf("dataset/LLC ratio = %d, too small for the paper's regime", sc.DatasetBytes/sc.LLCBytes)
	}
}

func TestObjdetSuiteSingleRepeatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in full mode only")
	}
	// Exercise the public suite entry points over a reduced benchmark
	// list is not possible (they are fixed); a one-benchmark SuiteSet
	// with repeats=2 covers the averaging path instead.
	r, err := engine.Execute(context.Background(), nil, SuiteSet([]string{"gcc"}, []string{"objdet"}, QuickScale(), testSeed, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 1 || r.Entries[0].CyclesDefault == 0 {
		t.Fatalf("entries = %+v", r.Entries)
	}
}

func TestRunSec62SmokeSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in full mode only")
	}
	// RunSec62 over all 8 benchmarks is exercised by cmd/experiments; the
	// harness path is covered here via its components on two benchmarks
	// plus the adversary (see TestSec62Quick). This test pins the public
	// function end to end at quick scale with a stubbed benchmark list.
	saved := Benchmarks
	Benchmarks = []string{"gcc"}
	defer func() { Benchmarks = saved }()
	r, err := engine.Execute(context.Background(), nil, Sec62Set(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 1 || r.Adversary.Benchmark != "sparse" {
		t.Fatalf("result = %+v", r)
	}
}

func TestLowPressureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("study run in full mode only")
	}
	r, err := engine.Execute(context.Background(), nil, LowPressureSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 3 {
		t.Fatalf("entries = %d", len(r.Entries))
	}
	for _, e := range r.Entries {
		// Low pressure by construction…
		if e.TLBMissPct > 25 {
			t.Errorf("%s: TLB miss rate %.1f%% is not low pressure", e.Benchmark, e.TLBMissPct)
		}
		// …and PTEMagnet never hurts (±1.5% noise band at quick scale).
		if e.SpeedupPct < -1.5 {
			t.Errorf("%s slowed down %.2f%%", e.Benchmark, e.SpeedupPct)
		}
	}
	if !strings.Contains(r.String(), "low-TLB-pressure") {
		t.Error("rendering incomplete")
	}
}
