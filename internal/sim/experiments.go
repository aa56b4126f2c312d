package sim

import (
	"fmt"
	"strings"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/nested"
)

// scenarioJob declares one single-VM scenario of a set.
func scenarioJob(name string, s Scenario) engine.Scenario[Result] {
	return job(name, s.spec(), s.result)
}

// pairJobs declares the default-vs-PTEMagnet pair of s under
// "<prefix>/default" and "<prefix>/ptemagnet".
func pairJobs(prefix string, s Scenario) []engine.Scenario[Result] {
	def := s
	def.Policy = guestos.PolicyDefault
	mag := s
	mag.Policy = guestos.PolicyPTEMagnet
	return []engine.Scenario[Result]{
		scenarioJob(prefix+"/default", def),
		scenarioJob(prefix+"/ptemagnet", mag),
	}
}

// MetricRow is one line of a paper-versus-measured comparison table.
type MetricRow struct {
	Metric   string
	Paper    string
	Measured string
}

func formatRows(title string, rows []MetricRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := 0
	for _, r := range rows {
		if len(r.Metric) > w {
			w = len(r.Metric)
		}
	}
	fmt.Fprintf(&b, "  %-*s  %-12s  %s\n", w, "metric", "paper", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-*s  %-12s  %s\n", w, r.Metric, r.Paper, r.Measured)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%+.0f%%", v) }

func change(base, now uint64) string {
	return pct(metrics.PercentChange(float64(base), float64(now)))
}

// ---------------------------------------------------------------------------
// Table 1 — fragmentation effects (§3.3)
// ---------------------------------------------------------------------------

// Table1Result compares pagerank colocated with stress-ng against standalone
// execution, both on the default kernel, with the co-runner stopped at the
// init boundary (the paper's §3.3 methodology).
type Table1Result struct {
	Isolation Result
	Colocated Result
	Rows      []MetricRow
}

// Table1Set declares the Table 1 scenario set: isolation and colocation
// runs reduced into the paper-versus-measured rows.
func Table1Set(sc Scale, seed int64) engine.Set[Result, Table1Result] {
	return engine.Set[Result, Table1Result]{
		Name: "table1",
		Scenarios: []engine.Scenario[Result]{
			scenarioJob("isolation", Scenario{
				Benchmark: "pagerank", Policy: guestos.PolicyDefault,
				Scale: sc, Seed: seed,
			}),
			scenarioJob("colocated", Scenario{
				Benchmark: "pagerank", Corunners: []string{"stress-ng"},
				Policy: guestos.PolicyDefault, StopCorunnersAtInit: true,
				Scale: sc, Seed: seed,
			}),
		},
		Reduce: func(res engine.Results[Result]) (Table1Result, error) {
			if err := res.FailedErr(); err != nil {
				return Table1Result{}, err
			}
			iso, _ := res.Get("isolation")
			col, _ := res.Get("colocated")
			r := Table1Result{Isolation: iso, Colocated: col}
			r.Rows = []MetricRow{
				{"Execution time", "+11%", change(iso.Task.SteadyCycles, col.Task.SteadyCycles)},
				{"Cache misses (data)", "<1%", change(dataMemServed(iso), dataMemServed(col))},
				{"TLB misses", "<1%", change(iso.Walk.TLBMisses(), col.Walk.TLBMisses())},
				{"Page walk cycles", "+61%", change(iso.Walk.WalkCycles, col.Walk.WalkCycles)},
				{"Cycles traversing host PT", "+117%", change(iso.Walk.Cycles[nested.DimHost], col.Walk.Cycles[nested.DimHost])},
				{"Guest PT accesses served by memory", "+3%", change(iso.Walk.MemServed(nested.DimGuest), col.Walk.MemServed(nested.DimGuest))},
				{"Host PT accesses served by memory", "+283%", change(iso.Walk.MemServed(nested.DimHost), col.Walk.MemServed(nested.DimHost))},
				{"Host PT fragmentation", "+242% (2.8→6.8)", fmt.Sprintf("%s (%.1f→%.1f)",
					pct(metrics.PercentChange(iso.Task.Frag.Mean, col.Task.Frag.Mean)),
					iso.Task.Frag.Mean, col.Task.Frag.Mean)},
				{"Fully scattered 8-page regions", "63%", fmt.Sprintf("%.0f%%", col.Task.Frag.FullyScattered*100)},
			}
			return r, nil
		},
	}
}

func dataMemServed(r Result) uint64 {
	return r.Task.SteadyDataServed[len(r.Task.SteadyDataServed)-1]
}

// String renders the comparison.
func (r Table1Result) String() string {
	return formatRows("Table 1: pagerank + stress-ng vs standalone (default kernel)", r.Rows)
}

// ---------------------------------------------------------------------------
// Figures 5, 6, 7 — per-benchmark suites (§6.1)
// ---------------------------------------------------------------------------

// SuiteEntry is one benchmark's default-vs-PTEMagnet comparison.
type SuiteEntry struct {
	Benchmark   string
	FragDefault float64
	FragMagnet  float64
	// SpeedupPct is PTEMagnet's performance improvement over default.
	SpeedupPct    float64
	CyclesDefault uint64
	CyclesMagnet  uint64
}

// SuiteResult covers all benchmarks under one co-runner set.
type SuiteResult struct {
	Corunners      []string
	Entries        []SuiteEntry
	GeomeanSpeedup float64
}

// SuiteRepeats is how many seeds each (benchmark, policy) pair is averaged
// over in the figure suites, standing in for the paper's 40-run averaging
// (the simulator is deterministic per seed, so seeds replace jitter).
const SuiteRepeats = 3

func suiteJobName(bench string, repeat int, policy guestos.AllocPolicy) string {
	return fmt.Sprintf("%s/r%d/%v", bench, repeat, policy)
}

// SuiteSet declares a figure suite: every benchmark under both policies
// with the given co-runners (running throughout, as in §6.1), repeats
// seeds per pair, reduced into per-benchmark averages and the geomean.
// The seed of repeat r is seed + r*1000, the harness's historical
// formula. A benchmark whose runs failed is dropped from the entries and
// surfaces through the returned error; the surviving entries are still
// reduced (graceful degradation per scenario).
func SuiteSet(benchmarks, corunners []string, sc Scale, seed int64, repeats int) engine.Set[Result, SuiteResult] {
	if repeats < 1 {
		repeats = 1
	}
	// Snapshot the lists: sets must be immutable after declaration.
	benchmarks = append([]string(nil), benchmarks...)
	corunners = append([]string(nil), corunners...)
	var jobs []engine.Scenario[Result]
	for _, b := range benchmarks {
		for r := 0; r < repeats; r++ {
			s := Scenario{
				Benchmark: b, Corunners: corunners, Scale: sc,
				Seed: seed + int64(r)*1000,
			}
			def := s
			def.Policy = guestos.PolicyDefault
			mag := s
			mag.Policy = guestos.PolicyPTEMagnet
			jobs = append(jobs,
				scenarioJob(suiteJobName(b, r, guestos.PolicyDefault), def),
				scenarioJob(suiteJobName(b, r, guestos.PolicyPTEMagnet), mag))
		}
	}
	return engine.Set[Result, SuiteResult]{
		Name:      "suite",
		Scenarios: jobs,
		Reduce: func(res engine.Results[Result]) (SuiteResult, error) {
			out := SuiteResult{Corunners: corunners}
			var ratios []float64
			for _, b := range benchmarks {
				var defCycles, magCycles uint64
				var defFrag, magFrag float64
				complete := true
				for r := 0; r < repeats; r++ {
					def, okd := res.Get(suiteJobName(b, r, guestos.PolicyDefault))
					mag, okm := res.Get(suiteJobName(b, r, guestos.PolicyPTEMagnet))
					if !okd || !okm {
						complete = false
						break
					}
					defCycles += def.Task.SteadyCycles
					magCycles += mag.Task.SteadyCycles
					defFrag += def.Task.Frag.Mean
					magFrag += mag.Task.Frag.Mean
				}
				if !complete {
					continue
				}
				out.Entries = append(out.Entries, SuiteEntry{
					Benchmark:     b,
					FragDefault:   defFrag / float64(repeats),
					FragMagnet:    magFrag / float64(repeats),
					SpeedupPct:    metrics.Speedup(defCycles, magCycles),
					CyclesDefault: defCycles / uint64(repeats),
					CyclesMagnet:  magCycles / uint64(repeats),
				})
				ratios = append(ratios, float64(defCycles)/float64(magCycles))
			}
			if len(ratios) > 0 {
				out.GeomeanSpeedup = (metrics.Geomean(ratios) - 1) * 100
			}
			return out, res.FailedErr()
		},
	}
}

// ObjdetSuiteSet declares the Figures 5/6 suite: every benchmark
// colocated with objdet, averaged over SuiteRepeats seeds.
func ObjdetSuiteSet(sc Scale, seed int64) engine.Set[Result, SuiteResult] {
	return SuiteSet(Benchmarks, []string{"objdet"}, sc, seed, SuiteRepeats)
}

// CombinationSuiteSet declares the Figure 7 suite: every benchmark
// colocated with the full Table 3 co-runner combination.
func CombinationSuiteSet(sc Scale, seed int64) engine.Set[Result, SuiteResult] {
	return SuiteSet(Benchmarks, Corunners, sc, seed, SuiteRepeats)
}

// String renders the suite as the two paper charts: fragmentation (Fig 5)
// and performance improvement (Fig 6/7).
func (s SuiteResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Co-runners: %s\n", strings.Join(sortedCopy(s.Corunners), ", "))
	fmt.Fprintf(&b, "  %-10s  %18s  %17s  %s\n", "benchmark", "frag default", "frag ptemagnet", "improvement")
	for _, e := range s.Entries {
		fmt.Fprintf(&b, "  %-10s  %18.2f  %17.2f  %+6.1f%%\n",
			e.Benchmark, e.FragDefault, e.FragMagnet, e.SpeedupPct)
	}
	fmt.Fprintf(&b, "  %-10s  %18s  %17s  %+6.1f%%\n", "geomean", "", "", s.GeomeanSpeedup)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 4 — PTEMagnet hardware metrics (§6.3)
// ---------------------------------------------------------------------------

// Table4Result compares pagerank + objdet under PTEMagnet against the
// default kernel (co-runner running throughout).
type Table4Result struct {
	Default Result
	Magnet  Result
	Rows    []MetricRow
}

// Table4Set declares the Table 4 pair.
func Table4Set(sc Scale, seed int64) engine.Set[Result, Table4Result] {
	return engine.Set[Result, Table4Result]{
		Name: "table4",
		Scenarios: pairJobs("pagerank+objdet", Scenario{
			Benchmark: "pagerank", Corunners: []string{"objdet"},
			Scale: sc, Seed: seed,
		}),
		Reduce: func(res engine.Results[Result]) (Table4Result, error) {
			if err := res.FailedErr(); err != nil {
				return Table4Result{}, err
			}
			def, _ := res.Get("pagerank+objdet/default")
			mag, _ := res.Get("pagerank+objdet/ptemagnet")
			r := Table4Result{Default: def, Magnet: mag}
			r.Rows = []MetricRow{
				{"Host PT fragmentation", "-66% (3.4→1.2)", fmt.Sprintf("%s (%.1f→%.1f)",
					pct(metrics.PercentChange(def.Task.Frag.Mean, mag.Task.Frag.Mean)),
					def.Task.Frag.Mean, mag.Task.Frag.Mean)},
				{"Execution time", "-7%", change(def.Task.SteadyCycles, mag.Task.SteadyCycles)},
				{"Page walk cycles", "-17%", change(def.Walk.WalkCycles, mag.Walk.WalkCycles)},
				{"Cycles traversing host PT", "-26%", change(def.Walk.Cycles[nested.DimHost], mag.Walk.Cycles[nested.DimHost])},
				{"Guest PT accesses served by memory", "-1%", change(def.Walk.MemServed(nested.DimGuest), mag.Walk.MemServed(nested.DimGuest))},
				{"Host PT accesses served by memory", "-13%", change(def.Walk.MemServed(nested.DimHost), mag.Walk.MemServed(nested.DimHost))},
			}
			return r, nil
		},
	}
}

// String renders the comparison.
func (r Table4Result) String() string {
	return formatRows("Table 4: pagerank + objdet, PTEMagnet vs default kernel", r.Rows)
}
