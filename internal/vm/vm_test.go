package vm

import (
	"context"
	"errors"
	"testing"

	"ptemagnet/internal/arch"

	"ptemagnet/internal/cache"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/workload"
)

// smallConfig builds a fast one-guest machine for tests.
func smallConfig(policy guestos.AllocPolicy) HostConfig {
	return HostConfig{
		HostMemBytes: 128 << 20,
		NumCPUs:      4,
		Guests:       []GuestConfig{{MemBytes: 64 << 20, Policy: policy, Seed: 42}},
	}
}

func smallGraph(seed int64) workload.GraphConfig {
	return workload.GraphConfig{DatasetBytes: 8 << 20, Accesses: 60_000, Seed: seed}
}

func TestRunSoloBenchmark(t *testing.T) {
	m, err := NewHost(smallConfig(guestos.PolicyDefault))
	if err != nil {
		t.Fatal(err)
	}
	task, err := m.AddTask(workload.NewPagerank(smallGraph(1)), RolePrimary)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if task.Accesses == 0 || task.DataCycles == 0 {
		t.Fatal("task did no work")
	}
	reports := m.Observe().Tasks
	if len(reports) != 1 || reports[0].Name != "pagerank" {
		t.Fatalf("reports = %+v", reports)
	}
	r := reports[0]
	// The report carries the task's counters, its work cycles follow from
	// the accesses, and the components sum to the total.
	if r.Accesses != task.Accesses || r.DataCycles != task.DataCycles ||
		r.TranslationCycles != task.TranslationCycles || r.FaultCycles != task.FaultCycles {
		t.Errorf("report %+v does not carry the task's counters", r)
	}
	if r.WorkCycles != workCyclesPerAccess*r.Accesses {
		t.Errorf("work cycles %d for %d accesses", r.WorkCycles, r.Accesses)
	}
	if r.WorkCycles+r.DataCycles+r.TranslationCycles+r.FaultCycles != r.Cycles {
		t.Errorf("cycle components %d+%d+%d+%d != total %d",
			r.WorkCycles, r.DataCycles, r.TranslationCycles, r.FaultCycles, r.Cycles)
	}
	if r.SteadyAccesses == 0 || r.SteadyAccesses >= r.Accesses {
		t.Errorf("steady accesses = %d of %d; init boundary not detected", r.SteadyAccesses, r.Accesses)
	}
	if r.Frag.Groups == 0 {
		t.Error("no fragmentation groups measured")
	}
	ws := m.Observe().Steady.Walker
	if ws.Lookups == 0 || ws.Walks == 0 {
		t.Errorf("steady walk stats empty: %+v", ws)
	}
}

func TestRunWithoutPrimaryFails(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyDefault))
	if _, err := m.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 1 << 20}), RoleCorunner); err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err == nil {
		t.Fatal("run without primary succeeded")
	}
}

func TestCorunnersStopWhenPrimaryFinishes(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyDefault))
	prim, _ := m.AddTask(workload.NewGCC(workload.SpecConfig{FootprintBytes: 4 << 20, Accesses: 20_000, Seed: 1}), RolePrimary)
	co, _ := m.AddTask(workload.NewPyaes(workload.CorunnerConfig{FootprintBytes: 1 << 20, Seed: 2}), RoleCorunner)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !prim.done {
		t.Error("primary not done")
	}
	if co.Accesses == 0 {
		t.Error("co-runner never ran")
	}
}

func TestStopCorunnersAtPrimaryInit(t *testing.T) {
	// §3.3 methodology: the co-runner's access count must freeze at the
	// primary's init boundary.
	mk := func(stop bool) (uint64, uint64) {
		m, _ := NewHost(smallConfig(guestos.PolicyDefault))
		p, _ := m.AddTask(workload.NewPagerank(smallGraph(3)), RolePrimary)
		co, _ := m.AddTask(workload.NewStressNG(workload.CorunnerConfig{FootprintBytes: 4 << 20, Seed: 4}), RoleCorunner)
		if err := m.RunWith(context.Background(), WithStopCorunnersAtInit(stop)); err != nil {
			t.Fatal(err)
		}
		return p.Accesses, co.Accesses
	}
	_, coStopped := mk(true)
	_, coFull := mk(false)
	if coStopped >= coFull {
		t.Errorf("co-runner ran %d accesses with early stop vs %d without", coStopped, coFull)
	}
}

func TestMagnetEliminatesFragmentationUnderColocation(t *testing.T) {
	run := func(policy guestos.AllocPolicy) float64 {
		m, err := NewHost(smallConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewPagerank(smallGraph(5)), RolePrimary); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewStressNG(workload.CorunnerConfig{FootprintBytes: 8 << 20, Seed: 6}), RoleCorunner); err != nil {
			t.Fatal(err)
		}
		if err := m.RunWith(context.Background()); err != nil {
			t.Fatal(err)
		}
		return m.Observe().Tasks[0].Frag.Mean
	}
	def := run(guestos.PolicyDefault)
	mag := run(guestos.PolicyPTEMagnet)
	if def < 3 {
		t.Errorf("default-policy fragmentation = %.2f; colocation effect too weak", def)
	}
	if mag > 1.2 {
		t.Errorf("PTEMagnet fragmentation = %.2f, want ~1", mag)
	}
	if mag >= def {
		t.Errorf("PTEMagnet (%.2f) did not reduce fragmentation vs default (%.2f)", mag, def)
	}
}

func TestMagnetImprovesColocatedPerformance(t *testing.T) {
	run := func(policy guestos.AllocPolicy) uint64 {
		m, err := NewHost(smallConfig(policy))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewPagerank(smallGraph(7)), RolePrimary); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(workload.NewObjdet(workload.CorunnerConfig{FootprintBytes: 8 << 20, Seed: 8}), RoleCorunner); err != nil {
			t.Fatal(err)
		}
		if err := m.RunWith(context.Background()); err != nil {
			t.Fatal(err)
		}
		return m.Observe().Tasks[0].SteadyCycles
	}
	def := run(guestos.PolicyDefault)
	mag := run(guestos.PolicyPTEMagnet)
	if mag >= def {
		t.Errorf("PTEMagnet steady cycles %d >= default %d; no speedup", mag, def)
	}
}

func TestUnusedGaugeSampling(t *testing.T) {
	cfg := smallConfig(guestos.PolicyPTEMagnet)
	m, _ := NewHost(cfg)
	m.AddTask(workload.NewSparse(4<<20), RolePrimary)
	if err := m.RunWith(context.Background(), WithSampleEvery(16)); err != nil {
		t.Fatal(err)
	}
	series := m.UnusedSeries()
	if len(series.Samples) == 0 {
		t.Fatal("no gauge samples recorded")
	}
	// The sparse adversary leaves 7 unused pages per touched group.
	groups := int64((4 << 20) / (32 << 10))
	if series.Max() != 7*groups {
		t.Errorf("max unused = %d, want %d", series.Max(), 7*groups)
	}
}

func TestMaxAccessesGuard(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyDefault))
	m.AddTask(workload.NewPagerank(smallGraph(9)), RolePrimary)
	if err := m.RunWith(context.Background(), WithMaxAccesses(100)); err == nil {
		t.Fatal("budget exceeded without error")
	}
}

// TestHostOOMIsAnError pins that a host fault the hypervisor cannot serve
// surfaces from RunWith as an error, not a panic: on a balloon-free machine
// an injected host OOM reaches the caller with both the injected-fault
// marker and the host's OOM sentinel in its chain.
func TestHostOOMIsAnError(t *testing.T) {
	m, err := NewHost(smallConfig(guestos.PolicyDefault))
	if err != nil {
		t.Fatal(err)
	}
	m.InstallFaultPlan(faults.NewPlan(faults.Config{HostOOMs: 1}, 0))
	if _, err := m.AddTask(workload.NewPagerank(smallGraph(1)), RolePrimary); err != nil {
		t.Fatal(err)
	}
	err = m.RunWith(context.Background())
	if !errors.Is(err, faults.ErrInjected) || !errors.Is(err, hostos.ErrOutOfMemory) {
		t.Fatalf("RunWith = %v, want an injected host OOM", err)
	}
}

func TestDataServedSumsToAccesses(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyDefault))
	task, _ := m.AddTask(workload.NewXZ(workload.SpecConfig{FootprintBytes: 4 << 20, Accesses: 20_000, Seed: 1}), RolePrimary)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	var served uint64
	for _, c := range task.DataServed {
		served += c
	}
	if served != task.Accesses {
		t.Errorf("data served sum %d != accesses %d", served, task.Accesses)
	}
}

func TestCostModelFaultCosts(t *testing.T) {
	// The reservation hit must be cheaper than the default path — the
	// §6.4 property.
	if faultCost(guestos.FaultMagnetHit) >= faultCost(guestos.FaultDefault) {
		t.Error("PaRT hit not cheaper than default fault")
	}
	// The group allocation is costlier than a single-page allocation but
	// amortized over 8 pages it wins.
	newCost := faultCost(guestos.FaultMagnetNew)
	hitCost := faultCost(guestos.FaultMagnetHit)
	defCost := faultCost(guestos.FaultDefault)
	if newCost+7*hitCost >= 8*defCost {
		t.Error("amortized reservation path not cheaper than 8 default faults")
	}
	for k := guestos.FaultKind(0); k < guestos.NumFaultKinds; k++ {
		if faultCost(k) == 0 {
			t.Errorf("fault kind %v costs nothing", k)
		}
	}
}

func TestSteadyCacheHits(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyDefault))
	m.AddTask(workload.NewGCC(workload.SpecConfig{FootprintBytes: 2 << 20, Accesses: 10_000, Seed: 3}), RolePrimary)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	full := m.Snapshot().Cache.Hits
	steady := m.Observe().Steady.Cache.Hits
	for lv := cache.Level(0); lv < cache.NumLevels; lv++ {
		if steady[lv] > full[lv] {
			t.Errorf("steady hits at %v exceed full-run hits", lv)
		}
	}
}

// recordingTracer counts tracer callbacks for machine-level verification.
type recordingTracer struct {
	accesses, faults int
	lastSeq          uint64
}

func (r *recordingTracer) AccessBatch(recs []AccessRecord) {
	r.accesses += len(recs)
	r.lastSeq = recs[len(recs)-1].Seq
}

func (r *recordingTracer) Fault(task int, va arch.VirtAddr, kind uint8, seq uint64) {
	r.faults++
}

func TestTracerReceivesEveryAccess(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyPTEMagnet))
	task, _ := m.AddTask(workload.NewGCC(workload.SpecConfig{FootprintBytes: 2 << 20, Accesses: 5000, Seed: 2}), RolePrimary)
	rec := &recordingTracer{}
	m.SetTracer(rec)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if uint64(rec.accesses) != task.Accesses {
		t.Errorf("tracer saw %d accesses, task did %d", rec.accesses, task.Accesses)
	}
	g := m.Guests()[0].Kernel().Snapshot()
	var faults uint64
	for _, c := range g.Faults {
		faults += c
	}
	if uint64(rec.faults) != faults {
		t.Errorf("tracer saw %d faults, kernel handled %d", rec.faults, faults)
	}
	if rec.lastSeq == 0 {
		t.Error("sequence numbers not flowing")
	}
}

func TestTHPThroughMachine(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyTHP))
	task, _ := m.AddTask(workload.NewPagerank(smallGraph(4)), RolePrimary)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if task.Process().PageTable().LargeMappings() == 0 {
		t.Error("no huge pages mapped through the machine")
	}
	// Huge-page-backed memory is contiguous, so the fragmentation metric
	// (which only covers 4KB-mapped regions) sees few groups, and data
	// still flows.
	if task.Accesses == 0 {
		t.Error("no accesses")
	}
}

// vetoOrder fails every guest allocation of one buddy order while armed.
type vetoOrder struct {
	order int
	armed bool
}

func (v *vetoOrder) FailAlloc(order int) bool { return v.armed && order == v.order }

// thpRefaultProgram faults a 2MB region in as 4KB pages while order-9
// allocations are vetoed, so its walks cache the region's leaf node in the
// guest PWC. It then frees the region, lifts the veto and touches it again:
// the second fault maps the region as one huge page, which frees that
// leaf node.
type thpRefaultProgram struct {
	veto *vetoOrder
	base arch.VirtAddr
	next int
}

var thpRefaultPages = []uint64{0, 1, 2, 3, 0, 5}

func (p *thpRefaultProgram) Name() string           { return "thp-refault" }
func (p *thpRefaultProgram) FootprintBytes() uint64 { return 4 << 20 }
func (p *thpRefaultProgram) InitDone() bool         { return p.next > 4 }

func (p *thpRefaultProgram) Setup(env workload.Env) (err error) {
	p.base, err = env.Mmap(4 << 20)
	return err
}

func (p *thpRefaultProgram) Step(env workload.Env) (workload.Access, bool) {
	if p.next == len(thpRefaultPages) {
		return workload.Access{}, true
	}
	if p.next == 4 {
		if err := env.Free(p.base, 2<<20); err != nil {
			return workload.Access{}, true
		}
		p.veto.armed = false
	}
	va := p.base + arch.VirtAddr(thpRefaultPages[p.next]*arch.PageSize)
	p.next++
	return workload.Access{VA: va, Write: true}, false
}

// TestTHPFaultDropsStaleGuestPWC pins the huge-page promotion of a region
// whose leaf node a walk cached: the THP fault frees that node, and the
// next walk in the region must start from the root, not from the freed
// frame.
func TestTHPFaultDropsStaleGuestPWC(t *testing.T) {
	m, err := NewHost(HostConfig{
		HostMemBytes: 64 << 20,
		NumCPUs:      1,
		Guests:       []GuestConfig{{MemBytes: 32 << 20, Policy: guestos.PolicyTHP, Seed: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	veto := &vetoOrder{order: 9, armed: true}
	m.Guests()[0].Kernel().Memory().SetAllocHook(veto)
	task, err := m.AddTask(&thpRefaultProgram{veto: veto}, RolePrimary)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if task.Accesses != 6 {
		t.Errorf("accesses = %d, want 6", task.Accesses)
	}
	if got := task.Process().PageTable().LargeMappings(); got != 1 {
		t.Errorf("large mappings = %d, want 1", got)
	}
}

func TestCAPagingThroughMachine(t *testing.T) {
	m, _ := NewHost(smallConfig(guestos.PolicyCAPaging))
	m.AddTask(workload.NewPagerank(smallGraph(4)), RolePrimary)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.Guests()[0].Kernel().Snapshot().Faults[guestos.FaultCAHit] == 0 {
		t.Error("CA paging never placed a page adjacently")
	}
}

func TestFiveLevelThroughMachine(t *testing.T) {
	cfg := smallConfig(guestos.PolicyPTEMagnet)
	cfg.PTLevels = 5
	m, err := NewHost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := m.AddTask(workload.NewGCC(workload.SpecConfig{FootprintBytes: 2 << 20, Accesses: 10_000, Seed: 6}), RolePrimary)
	if err := m.RunWith(context.Background()); err != nil {
		t.Fatal(err)
	}
	if task.Process().PageTable().Levels() != 5 {
		t.Error("guest table not 5-level")
	}
	if m.Guests()[0].HostVM().PageTable().Levels() != 5 {
		t.Error("host table not 5-level")
	}
	if task.Accesses == 0 {
		t.Error("no accesses")
	}
}
