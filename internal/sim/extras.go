package sim

import (
	"fmt"
	"strings"
	"sync"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/core"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/physmem"
)

// ---------------------------------------------------------------------------
// §6.2 — incidence of non-allocated pages within reservations
// ---------------------------------------------------------------------------

// Sec62Entry is one benchmark's reservation-waste measurement.
type Sec62Entry struct {
	Benchmark string
	// MaxUnusedPages is the peak reserved-but-unmapped page count.
	MaxUnusedPages int64
	// FootprintPages is the benchmark's resident set.
	FootprintPages uint64
	// MaxUnusedPct is the peak as a percentage of the footprint — the
	// paper reports this never exceeds 0.2% for real benchmarks and can
	// reach 700% for an adversary.
	MaxUnusedPct float64
}

// Sec62Result covers the benchmark suite plus the sparse adversary.
type Sec62Result struct {
	Entries   []Sec62Entry
	Adversary Sec62Entry
}

// Sec62Set declares the §6.2 study: every benchmark under PTEMagnet
// (colocated with objdet, as in §6.1) with the unused-reservation gauge
// sampled throughout, plus the every-eighth-page adversary. Benchmarks
// whose run failed are dropped from the entries; their errors surface
// through the returned error.
func Sec62Set(sc Scale, seed int64) engine.Set[Result, Sec62Result] {
	benchmarks := append([]string(nil), Benchmarks...)
	var jobs []engine.Scenario[Result]
	for _, b := range benchmarks {
		jobs = append(jobs, scenarioJob(b, Scenario{
			Benchmark: b, Corunners: []string{"objdet"},
			Policy: guestos.PolicyPTEMagnet, Scale: sc, Seed: seed,
		}))
	}
	jobs = append(jobs, scenarioJob("sparse", Scenario{
		Benchmark: "sparse", Policy: guestos.PolicyPTEMagnet,
		Scale: sc, Seed: seed,
	}))
	return engine.Set[Result, Sec62Result]{
		Name:      "sec62",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (Sec62Result, error) {
			var out Sec62Result
			for _, b := range benchmarks {
				if r, ok := res.Get(b); ok {
					out.Entries = append(out.Entries, sec62Entry(b, r))
				}
			}
			if adv, ok := res.Get("sparse"); ok {
				out.Adversary = sec62Entry("sparse", adv)
			}
			return out, res.FailedErr()
		},
	}
}

func sec62Entry(name string, res Result) Sec62Entry {
	e := Sec62Entry{
		Benchmark:      name,
		MaxUnusedPages: res.UnusedMax,
		FootprintPages: res.FootprintPages,
	}
	if res.FootprintPages > 0 {
		e.MaxUnusedPct = float64(res.UnusedMax) / float64(res.FootprintPages) * 100
	}
	return e
}

// String renders the study.
func (r Sec62Result) String() string {
	var b strings.Builder
	b.WriteString("Section 6.2: non-allocated pages within reservations (paper: <0.2% of footprint)\n")
	fmt.Fprintf(&b, "  %-10s  %14s  %15s  %s\n", "benchmark", "peak unused", "footprint", "peak % of footprint")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-10s  %8d pages  %9d pages  %.3f%%\n",
			e.Benchmark, e.MaxUnusedPages, e.FootprintPages, e.MaxUnusedPct)
	}
	fmt.Fprintf(&b, "  %-10s  %8d pages  %9d pages  %.0f%%  (paper: adversary can reach 700%%)\n",
		r.Adversary.Benchmark, r.Adversary.MaxUnusedPages, r.Adversary.FootprintPages, r.Adversary.MaxUnusedPct)
	return b.String()
}

// ---------------------------------------------------------------------------
// §6.4 — memory-allocation latency microbenchmark
// ---------------------------------------------------------------------------

// Sec64Result compares the allocation microbenchmark under both policies.
type Sec64Result struct {
	Default Result
	Magnet  Result
	// ImprovementPct is PTEMagnet's end-to-end gain (paper: ~0.5%).
	ImprovementPct float64
	// BuddyCallsDefault/Magnet show the mechanism: PTEMagnet replaces 7
	// of 8 buddy calls with PaRT hits.
	BuddyCallsDefault uint64
	BuddyCallsMagnet  uint64
	// FaultCyclesDefault/Magnet isolate the allocation path cost.
	FaultCyclesDefault uint64
	FaultCyclesMagnet  uint64
}

// Sec64Set declares the §6.4 microbenchmark pair: touch every page of a
// huge array once, so execution is dominated by the fault/allocation path.
func Sec64Set(sc Scale, seed int64) engine.Set[Result, Sec64Result] {
	return engine.Set[Result, Sec64Result]{
		Name: "sec64",
		Scenarios: pairJobs("allocmicro", Scenario{
			Benchmark: "allocmicro", Scale: sc, Seed: seed,
		}),
		Reduce: func(res engine.Results[Result]) (Sec64Result, error) {
			if err := res.FailedErr(); err != nil {
				return Sec64Result{}, err
			}
			def, _ := res.Get("allocmicro/default")
			mag, _ := res.Get("allocmicro/ptemagnet")
			return Sec64Result{
				Default: def,
				Magnet:  mag,
				// Whole-run cycles: the entire microbenchmark is the
				// measurement (there is no steady phase after the
				// allocation scan).
				ImprovementPct:     metrics.Speedup(def.Task.Cycles, mag.Task.Cycles),
				BuddyCallsDefault:  def.Guest.BuddyCalls,
				BuddyCallsMagnet:   mag.Guest.BuddyCalls,
				FaultCyclesDefault: def.Task.FaultCycles,
				FaultCyclesMagnet:  mag.Task.FaultCycles,
			}, nil
		},
	}
}

// Speedup uses whole-run cycles here: the entire microbenchmark is the
// measurement (there is no steady phase).
func (r Sec64Result) String() string {
	var b strings.Builder
	b.WriteString("Section 6.4: allocation-latency microbenchmark (paper: PTEMagnet 0.5% faster)\n")
	fmt.Fprintf(&b, "  execution cycles   default %12d   ptemagnet %12d   improvement %+.2f%%\n",
		r.Default.Task.Cycles, r.Magnet.Task.Cycles,
		(float64(r.Default.Task.Cycles)/float64(r.Magnet.Task.Cycles)-1)*100)
	fmt.Fprintf(&b, "  buddy calls        default %12d   ptemagnet %12d   (paper: 7 of 8 calls replaced by PaRT hits)\n",
		r.BuddyCallsDefault, r.BuddyCallsMagnet)
	fmt.Fprintf(&b, "  fault-path cycles  default %12d   ptemagnet %12d\n",
		r.FaultCyclesDefault, r.FaultCyclesMagnet)
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablations (design choices of §4)
// ---------------------------------------------------------------------------

// GranularityEntry is one reservation-size design point.
type GranularityEntry struct {
	GroupPages int
	Frag       float64
	SpeedupPct float64
}

// GranularityResult sweeps the reservation granularity. The paper fixes 8
// pages because eight 8-byte PTEs fill one 64-byte cache block; the sweep
// shows why: fragmentation keeps dropping until 8 and is flat beyond.
type GranularityResult struct {
	Baseline Result // default policy
	Entries  []GranularityEntry
}

// granularitySweep is the swept group sizes; 8 is the paper's design point.
var granularitySweep = []int{2, 4, 8, 16, 32}

// GranularitySet declares the granularity sweep over pagerank + objdet:
// the default-policy baseline plus one PTEMagnet run per group size.
func GranularitySet(sc Scale, seed int64) engine.Set[Result, GranularityResult] {
	base := Scenario{
		Benchmark: "pagerank", Corunners: []string{"objdet"},
		Policy: guestos.PolicyDefault, Scale: sc, Seed: seed,
	}
	jobs := []engine.Scenario[Result]{scenarioJob("default", base)}
	for _, gp := range granularitySweep {
		s := base
		s.Policy = guestos.PolicyPTEMagnet
		s.Magnet = core.Config{GroupPages: gp}
		jobs = append(jobs, scenarioJob(fmt.Sprintf("group%d", gp), s))
	}
	return engine.Set[Result, GranularityResult]{
		Name:      "granularity",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (GranularityResult, error) {
			def, ok := res.Get("default")
			if !ok {
				// Without the baseline no design point is comparable.
				return GranularityResult{}, res.FailedErr()
			}
			out := GranularityResult{Baseline: def}
			for _, gp := range granularitySweep {
				r, ok := res.Get(fmt.Sprintf("group%d", gp))
				if !ok {
					continue
				}
				out.Entries = append(out.Entries, GranularityEntry{
					GroupPages: gp,
					Frag:       r.Task.Frag.Mean,
					SpeedupPct: r.Speedup(def),
				})
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the sweep.
func (r GranularityResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: reservation granularity (paper design point: 8 pages = 1 cache block of PTEs)\n")
	fmt.Fprintf(&b, "  %-12s  %12s  %s\n", "group pages", "frag", "improvement")
	fmt.Fprintf(&b, "  %-12s  %12.2f  %s\n", "default", r.Baseline.Task.Frag.Mean, "baseline")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-12d  %12.2f  %+6.1f%%\n", e.GroupPages, e.Frag, e.SpeedupPct)
	}
	return b.String()
}

// LockingResult measures PaRT fault throughput under concurrency for the
// fine-grained per-node locking §4.2 mandates versus a single coarse lock.
type LockingResult struct {
	Goroutines    int
	FaultsEach    int
	FineNsPerOp   float64
	CoarseNsPerOp float64
}

// RunLockingAblation hammers two PaRTs with concurrent faults to disjoint
// groups (the multi-threaded-allocation scenario of §4.2) and compares
// wall-clock throughput. This is real concurrency, not simulated time —
// it spawns its own goroutines and therefore bypasses the scenario
// engine (nesting it inside a worker pool would skew the measurement).
// The clock itself is still read through engine.StartTimer, the one
// timing hook the noclock contract permits below cmd/.
func RunLockingAblation(goroutines, faultsEach int) LockingResult {
	measure := func(coarse bool) float64 {
		part := core.MustNew(core.Config{GroupPages: arch.GroupPages, CoarseLocking: coarse})
		mem := physmem.New(1 << 30)
		var memMu sync.Mutex
		alloc := func() (arch.PhysAddr, bool) {
			memMu.Lock()
			defer memMu.Unlock()
			return mem.AllocGroup(arch.GroupPages, physmem.KindReserved)
		}
		elapsed := engine.StartTimer()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			//ptmlint:allow(goscope) wall-clock locking ablation: measures real lock contention, reports timing only, touches no simulation counters
			go func(g int) {
				defer wg.Done()
				base := arch.VirtAddr(uint64(g) << 32)
				for i := 0; i < faultsEach; i++ {
					va := base + arch.VirtAddr(uint64(i)*arch.PageSize)
					if _, res := part.HandleFault(va, alloc); res == core.FaultNoMemory {
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return float64(elapsed().Nanoseconds()) / float64(goroutines*faultsEach)
	}
	return LockingResult{
		Goroutines:    goroutines,
		FaultsEach:    faultsEach,
		FineNsPerOp:   measure(false),
		CoarseNsPerOp: measure(true),
	}
}

// String renders the comparison.
func (r LockingResult) String() string {
	return fmt.Sprintf(
		"Ablation: PaRT locking (%d goroutines × %d faults)\n  fine-grained: %.0f ns/fault   coarse: %.0f ns/fault   (fine-grained per-node locks are the §4.2 design)\n",
		r.Goroutines, r.FaultsEach, r.FineNsPerOp, r.CoarseNsPerOp)
}

// ReclaimEntry is one watermark design point.
type ReclaimEntry struct {
	Watermark             float64
	ReclaimRuns           uint64
	ReclaimedReservations uint64
	PeakUnusedPages       int64
}

// ReclaimResult sweeps the §4.3 reclaim watermark with the sparse adversary
// on a small memory, showing the trade-off: lower watermarks reclaim more
// aggressively and bound reservation waste tighter.
type ReclaimResult struct {
	Entries []ReclaimEntry
}

// reclaimWatermarks is the swept §4.3 watermark design points.
var reclaimWatermarks = []float64{0.3, 0.5, 0.7, 0.9}

// ReclaimSweepSet declares the reclaim-watermark sweep.
func ReclaimSweepSet(sc Scale, seed int64) engine.Set[Result, ReclaimResult] {
	var jobs []engine.Scenario[Result]
	for _, wm := range reclaimWatermarks {
		jobs = append(jobs, scenarioJob(fmt.Sprintf("watermark%.1f", wm), Scenario{
			Benchmark: "sparse", Policy: guestos.PolicyPTEMagnet,
			ReclaimWatermark: wm,
			Scale: Scale{
				HostMemBytes:  sc.HostMemBytes,
				GuestMemBytes: sc.DatasetBytes * 2, // tight memory: pressure is real
				DatasetBytes:  sc.DatasetBytes,
				Accesses:      sc.Accesses,
			},
			Seed: seed,
		}))
	}
	return engine.Set[Result, ReclaimResult]{
		Name:      "reclaim",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (ReclaimResult, error) {
			var out ReclaimResult
			for _, wm := range reclaimWatermarks {
				r, ok := res.Get(fmt.Sprintf("watermark%.1f", wm))
				if !ok {
					continue
				}
				out.Entries = append(out.Entries, ReclaimEntry{
					Watermark:             wm,
					ReclaimRuns:           r.Guest.ReclaimRuns,
					ReclaimedReservations: r.Guest.ReclaimedReservations,
					PeakUnusedPages:       r.UnusedMax,
				})
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the sweep.
func (r ReclaimResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: reclaim watermark (§4.3) under the sparse adversary, tight memory\n")
	fmt.Fprintf(&b, "  %-10s  %12s  %22s  %s\n", "watermark", "daemon runs", "reclaimed reservations", "peak unused pages")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-10.1f  %12d  %22d  %d\n",
			e.Watermark, e.ReclaimRuns, e.ReclaimedReservations, e.PeakUnusedPages)
	}
	return b.String()
}

// ThresholdResult demonstrates the §4.4 enable mechanism: with a threshold
// set, only big-memory processes get PaRTs.
type ThresholdResult struct {
	ThresholdBytes uint64
	// WithPart / WithoutPart list process names by whether PTEMagnet
	// applied to them.
	WithPart    []string
	WithoutPart []string
}

// RunThresholdDemo runs pagerank with the small co-runners under a
// threshold chosen to include only the benchmark. It only builds a
// machine (no simulation run), so it does not go through the engine.
func RunThresholdDemo(sc Scale, seed int64) (ThresholdResult, error) {
	// The small co-runners declare footprints of at most 8MB; any
	// threshold above that and at most the benchmark's footprint
	// separates them (§4.4: limits derived from memory.limit_in_bytes).
	threshold := uint64(9 << 20)
	if threshold > sc.DatasetBytes {
		threshold = sc.DatasetBytes
	}
	cfg := Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"chameleon", "pyaes", "json_serdes", "rnn_serving"},
		Policy:    guestos.PolicyPTEMagnet, EnableThresholdBytes: threshold,
		Scale: sc, Seed: seed,
	}
	m, err := BuildMachine(cfg)
	if err != nil {
		return ThresholdResult{}, err
	}
	out := ThresholdResult{ThresholdBytes: threshold}
	for _, task := range m.Tasks() {
		if task.Process().Part() != nil {
			out.WithPart = append(out.WithPart, task.Name())
		} else {
			out.WithoutPart = append(out.WithoutPart, task.Name())
		}
	}
	return out, nil
}

// String renders the demo.
func (r ThresholdResult) String() string {
	return fmt.Sprintf(
		"Ablation: §4.4 enable threshold (%d MB)\n  PTEMagnet enabled:  %s\n  PTEMagnet disabled: %s\n",
		r.ThresholdBytes>>20,
		strings.Join(sortedCopy(r.WithPart), ", "),
		strings.Join(sortedCopy(r.WithoutPart), ", "))
}

// ---------------------------------------------------------------------------
// Baseline comparison: contiguity-aware paging (related work, §7)
// ---------------------------------------------------------------------------

// colocationLevels are the rising-pressure co-runner sets shared by the
// CA-paging and THP baseline comparisons.
func colocationLevels() []struct {
	name      string
	corunners []string
} {
	return []struct {
		name      string
		corunners []string
	}{
		{"solo", nil},
		{"objdet", []string{"objdet"}},
		{"combination", append([]string(nil), Corunners...)},
	}
}

// CAPagingEntry compares allocators at one colocation level.
type CAPagingEntry struct {
	// Colocation names the co-runner set.
	Colocation string
	// FragCA / FragMagnet are host-PT fragmentation under each allocator
	// (default-policy fragmentation is FragDefault).
	FragDefault float64
	FragCA      float64
	FragMagnet  float64
	// SpeedupCA / SpeedupMagnet are improvements over the default policy.
	SpeedupCA     float64
	SpeedupMagnet float64
}

// CAPagingResult contrasts best-effort contiguity (CA paging) with eager
// reservation (PTEMagnet) as colocation pressure rises — the paper's §7
// argument: "improvements of CA paging can be significantly reduced under
// aggressive colocation ... PTEMagnet guarantees contiguity by eager
// reservation and it is insensitive to colocation".
type CAPagingResult struct {
	Entries []CAPagingEntry
}

// CAPagingSet declares pagerank at three colocation levels under the
// default allocator, CA paging, and PTEMagnet (nine scenarios). A level
// with any failed run is dropped from the entries.
func CAPagingSet(sc Scale, seed int64) engine.Set[Result, CAPagingResult] {
	levels := colocationLevels()
	var jobs []engine.Scenario[Result]
	for _, lv := range levels {
		base := Scenario{
			Benchmark: "pagerank", Corunners: lv.corunners,
			Scale: sc, Seed: seed,
		}
		for _, p := range []guestos.AllocPolicy{
			guestos.PolicyDefault, guestos.PolicyCAPaging, guestos.PolicyPTEMagnet,
		} {
			s := base
			s.Policy = p
			jobs = append(jobs, scenarioJob(fmt.Sprintf("%s/%v", lv.name, p), s))
		}
	}
	return engine.Set[Result, CAPagingResult]{
		Name:      "capaging",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (CAPagingResult, error) {
			var out CAPagingResult
			for _, lv := range levels {
				def, okD := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyDefault))
				ca, okC := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyCAPaging))
				mag, okM := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyPTEMagnet))
				if !okD || !okC || !okM {
					continue
				}
				out.Entries = append(out.Entries, CAPagingEntry{
					Colocation:    lv.name,
					FragDefault:   def.Task.Frag.Mean,
					FragCA:        ca.Task.Frag.Mean,
					FragMagnet:    mag.Task.Frag.Mean,
					SpeedupCA:     ca.Speedup(def),
					SpeedupMagnet: mag.Speedup(def),
				})
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the comparison.
func (r CAPagingResult) String() string {
	var b strings.Builder
	b.WriteString("Baseline: CA paging (best effort) vs PTEMagnet (eager reservation), pagerank\n")
	fmt.Fprintf(&b, "  %-12s  %10s  %10s  %10s  %12s  %s\n",
		"colocation", "frag def", "frag CA", "frag PTEM", "CA speedup", "PTEM speedup")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-12s  %10.2f  %10.2f  %10.2f  %+11.1f%%  %+.1f%%\n",
			e.Colocation, e.FragDefault, e.FragCA, e.FragMagnet, e.SpeedupCA, e.SpeedupMagnet)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Baseline comparison: transparent huge pages (§2.3)
// ---------------------------------------------------------------------------

// THPEntry compares THP and PTEMagnet at one colocation level.
type THPEntry struct {
	// Colocation names the co-runner set.
	Colocation string
	// SpeedupTHP / SpeedupMagnet are improvements over the default
	// 4KB-page policy.
	SpeedupTHP    float64
	SpeedupMagnet float64
	// THPCoverage is the fraction of the benchmark's resident set backed
	// by 2MB pages at the end of the run; fragmentation pushes it down.
	THPCoverage float64
	// THPFallbacks and THPSplits count the §2.3 failure modes.
	THPFallbacks uint64
	THPSplits    uint64
	// RSSTHPPages / RSSDefaultPages expose THP's internal fragmentation:
	// committed pages under each policy.
	RSSTHPPages     uint64
	RSSDefaultPages uint64
}

// THPResult contrasts transparent huge pages with PTEMagnet. The paper's
// §2.3 position: THP is a "big hammer" — large wins when whole 2MB blocks
// are available, but order-9 allocations fail under fragmentation, memory
// is over-committed, and production clouds often disable it. PTEMagnet's
// fine-grained reservations deliver a smaller but unconditional win.
type THPResult struct {
	Entries []THPEntry
}

func thpEntry(name string, def, thp Result) THPEntry {
	e := THPEntry{
		Colocation:      name,
		SpeedupTHP:      thp.Speedup(def),
		THPFallbacks:    thp.Guest.THPFallbacks,
		THPSplits:       thp.Guest.THPSplits,
		RSSTHPPages:     thp.FootprintPages,
		RSSDefaultPages: def.FootprintPages,
	}
	if thp.FootprintPages > 0 {
		e.THPCoverage = float64(thp.LargeMappings*arch.PTEntriesPerNode) / float64(thp.FootprintPages)
	}
	return e
}

// THPSet declares pagerank at rising colocation pressure under the
// default allocator, THP, and PTEMagnet, plus the sparse-touch pair that
// exposes THP's internal fragmentation (§2.3's first cost).
func THPSet(sc Scale, seed int64) engine.Set[Result, THPResult] {
	levels := colocationLevels()
	var jobs []engine.Scenario[Result]
	for _, lv := range levels {
		base := Scenario{
			Benchmark: "pagerank", Corunners: lv.corunners,
			Scale: sc, Seed: seed,
		}
		for _, p := range []guestos.AllocPolicy{
			guestos.PolicyDefault, guestos.PolicyTHP, guestos.PolicyPTEMagnet,
		} {
			s := base
			s.Policy = p
			jobs = append(jobs, scenarioJob(fmt.Sprintf("%s/%v", lv.name, p), s))
		}
	}
	// Internal fragmentation: the sparse-touch workload commits one page
	// per 32KB; THP commits the whole 2MB region per touch.
	sparseBase := Scenario{Benchmark: "sparse", Scale: sc, Seed: seed}
	for _, p := range []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyTHP} {
		s := sparseBase
		s.Policy = p
		jobs = append(jobs, scenarioJob(fmt.Sprintf("sparse-touch/%v", p), s))
	}
	return engine.Set[Result, THPResult]{
		Name:      "thp",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (THPResult, error) {
			var out THPResult
			for _, lv := range levels {
				def, okD := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyDefault))
				thp, okT := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyTHP))
				mag, okM := res.Get(fmt.Sprintf("%s/%v", lv.name, guestos.PolicyPTEMagnet))
				if !okD || !okT || !okM {
					continue
				}
				e := thpEntry(lv.name, def, thp)
				e.SpeedupMagnet = mag.Speedup(def)
				out.Entries = append(out.Entries, e)
			}
			sd, okD := res.Get(fmt.Sprintf("sparse-touch/%v", guestos.PolicyDefault))
			st, okT := res.Get(fmt.Sprintf("sparse-touch/%v", guestos.PolicyTHP))
			if okD && okT {
				out.Entries = append(out.Entries, thpEntry("sparse-touch", sd, st))
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the comparison.
func (r THPResult) String() string {
	var b strings.Builder
	b.WriteString("Baseline: transparent huge pages (§2.3) vs PTEMagnet, pagerank\n")
	fmt.Fprintf(&b, "  %-12s  %11s  %13s  %12s  %10s  %s\n",
		"colocation", "THP speedup", "PTEM speedup", "THP coverage", "fallbacks", "RSS thp/default")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-12s  %+10.1f%%  %+12.1f%%  %11.0f%%  %10d  %d/%d pages\n",
			e.Colocation, e.SpeedupTHP, e.SpeedupMagnet, e.THPCoverage*100,
			e.THPFallbacks, e.RSSTHPPages, e.RSSDefaultPages)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extension: five-level paging (§2.5's anticipated migration)
// ---------------------------------------------------------------------------

// FiveLevelEntry compares one page-table depth.
type FiveLevelEntry struct {
	Levels int
	// WalkCyclesDefault / WalkCyclesMagnet are steady-phase walk cycles.
	WalkCyclesDefault uint64
	WalkCyclesMagnet  uint64
	// SpeedupMagnet is PTEMagnet's improvement over default at this depth.
	SpeedupMagnet float64
}

// FiveLevelResult contrasts 4-level and 5-level paging. The paper (§2.5)
// notes Linux's "planned migration to five-level PTs": a 2D walk grows from
// up to 24 accesses to up to 35, so page walks get longer and the latency
// PTEMagnet removes grows with them.
type FiveLevelResult struct {
	Entries []FiveLevelEntry
}

// FiveLevelSet declares pagerank + objdet at both page-table depths under
// both policies (four scenarios).
func FiveLevelSet(sc Scale, seed int64) engine.Set[Result, FiveLevelResult] {
	depths := []int{4, 5}
	var jobs []engine.Scenario[Result]
	for _, levels := range depths {
		jobs = append(jobs, pairJobs(fmt.Sprintf("%d-level", levels), Scenario{
			Benchmark: "pagerank", Corunners: []string{"objdet"},
			Scale: sc, Seed: seed, PTLevels: levels,
		})...)
	}
	return engine.Set[Result, FiveLevelResult]{
		Name:      "fivelevel",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (FiveLevelResult, error) {
			var out FiveLevelResult
			for _, levels := range depths {
				def, okD := res.Get(fmt.Sprintf("%d-level/default", levels))
				mag, okM := res.Get(fmt.Sprintf("%d-level/ptemagnet", levels))
				if !okD || !okM {
					continue
				}
				out.Entries = append(out.Entries, FiveLevelEntry{
					Levels:            levels,
					WalkCyclesDefault: def.Walk.WalkCycles,
					WalkCyclesMagnet:  mag.Walk.WalkCycles,
					SpeedupMagnet:     mag.Speedup(def),
				})
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the comparison.
func (r FiveLevelResult) String() string {
	var b strings.Builder
	b.WriteString("Extension: four- vs five-level paging (§2.5), pagerank + objdet\n")
	fmt.Fprintf(&b, "  %-8s  %20s  %20s  %s\n", "levels", "walk cycles default", "walk cycles ptemagnet", "PTEM speedup")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-8d  %20d  %20d  %+.1f%%\n",
			e.Levels, e.WalkCyclesDefault, e.WalkCyclesMagnet, e.SpeedupMagnet)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// §6.1 — overhead-freedom on low-TLB-pressure applications
// ---------------------------------------------------------------------------

// LowPressureEntry is one small-footprint benchmark's comparison.
type LowPressureEntry struct {
	Benchmark  string
	SpeedupPct float64
	// TLBMissPct is the steady-phase TLB miss rate under the default
	// policy (low by construction).
	TLBMissPct float64
}

// LowPressureResult verifies the §6.1 claim that applications with
// infrequent TLB misses see 0-1% improvement and are never slowed down —
// the property that makes PTEMagnet safe to deploy unconditionally.
type LowPressureResult struct {
	Entries []LowPressureEntry
}

// lowPressureBenchmarks are the small-footprint variants under study.
var lowPressureBenchmarks = []string{"gcc", "omnetpp", "xz"}

// LowPressureSet declares small-footprint variants (working sets within
// TLB reach) of three benchmarks: the colocated default/PTEMagnet pair
// plus a solo default run per benchmark (the walker counters in a
// colocated run mix in the co-runner's misses, so the benchmark's own
// TLB pressure is measured from the solo run).
func LowPressureSet(sc Scale, seed int64) engine.Set[Result, LowPressureResult] {
	small := sc
	// Footprints near the STLB reach (1024 entries × 4KB = 4MB): almost
	// every access is a TLB hit, so there is nothing for PTEMagnet to
	// accelerate — and nothing it may slow down.
	small.DatasetBytes = 3 << 20
	var jobs []engine.Scenario[Result]
	for _, b := range lowPressureBenchmarks {
		jobs = append(jobs, pairJobs(b, Scenario{
			Benchmark: b, Corunners: []string{"objdet"},
			Scale: small, Seed: seed,
		})...)
		jobs = append(jobs, scenarioJob(b+"/solo", Scenario{
			Benchmark: b, Policy: guestos.PolicyDefault, Scale: small, Seed: seed,
		}))
	}
	return engine.Set[Result, LowPressureResult]{
		Name:      "lowpressure",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (LowPressureResult, error) {
			var out LowPressureResult
			for _, b := range lowPressureBenchmarks {
				def, okD := res.Get(b + "/default")
				mag, okM := res.Get(b + "/ptemagnet")
				solo, okS := res.Get(b + "/solo")
				if !okD || !okM || !okS {
					continue
				}
				missPct := 0.0
				if solo.Walk.Lookups > 0 {
					missPct = 100 * float64(solo.Walk.TLBMisses()) / float64(solo.Walk.Lookups)
				}
				out.Entries = append(out.Entries, LowPressureEntry{
					Benchmark:  b,
					SpeedupPct: mag.Speedup(def),
					TLBMissPct: missPct,
				})
			}
			return out, res.FailedErr()
		},
	}
}

// String renders the study.
func (r LowPressureResult) String() string {
	var b strings.Builder
	b.WriteString("Section 6.1: low-TLB-pressure applications (paper: 0-1% improvement, never negative)\n")
	fmt.Fprintf(&b, "  %-10s  %14s  %s\n", "benchmark", "TLB miss rate", "PTEMagnet improvement")
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %-10s  %13.2f%%  %+.2f%%\n", e.Benchmark, e.TLBMissPct, e.SpeedupPct)
	}
	return b.String()
}
