package main

import "sort"

// metricDef names one reported metric. For a per-layer metric, moves and
// on record, before any optimisation is measured, which end-to-end metric
// a change to that layer should move and on which workload.
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics a user of the simulator sees, reported by
// untraced runs (-trace 0). Times are quoted at nominal host speed.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "accesses_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_s_per_maccess", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer are the traced run's metrics (-trace 1). Counts and ratios come
// from the pass's RunRecord counters; ns figures from replaying a
// representative run's access and fault stream into each layer's public
// entry points; shares are ns/op × the representative run's op count over
// its RunWith time.
var perLayer = []metricDef{
	{"engine.busy_frac", "frac", "higher", "wall_s", "suite"},
	{"engine.scenario_ms.p50", "ms", "lower", "wall_s", "suite"},
	{"engine.scenario_ms.max", "ms", "lower", "wall_s", "suite"},
	{"sim.build_ms", "ms", "lower", "wall_s", "fault-path"},
	{"sim.observe_ms", "ms", "lower", "wall_s", "fault-path"},
	{"vm.run_ns_per_access", "ns", "lower", "accesses_per_s", "suite"},
	{"vm.residual_ns_per_access", "ns", "lower", "accesses_per_s", "suite"},
	{"workload.step_ns_per_access", "ns", "lower", "accesses_per_s", "suite"},
	{"workload.share", "frac", "lower", "accesses_per_s", "suite"},
	{"tlb.lookups_per_access", "count", "lower", "accesses_per_s", "suite"},
	{"tlb.l1_hit_ratio", "frac", "higher", "accesses_per_s", "suite"},
	{"tlb.l2_hit_ratio", "frac", "higher", "accesses_per_s", "suite"},
	{"tlb.lookup_ns", "ns", "lower", "accesses_per_s", "suite"},
	{"tlb.insert_ns", "ns", "lower", "accesses_per_s", "suite"},
	{"tlb.share", "frac", "lower", "accesses_per_s", "suite"},
	{"nested.walks_per_access", "count", "lower", "accesses_per_s", "suite"},
	{"nested.refs_per_walk", "count", "lower", "accesses_per_s", "suite"},
	{"nested.pwc_hit_ratio", "frac", "higher", "accesses_per_s", "suite"},
	{"nested.fast_ns", "ns", "lower", "accesses_per_s", "suite"},
	{"nested.walk_ns", "ns", "lower", "accesses_per_s", "suite"},
	{"nested.share", "frac", "lower", "accesses_per_s", "suite"},
	{"cache.refs_per_access", "count", "lower", "accesses_per_s", "suite"},
	{"cache.l1_hit_ratio", "frac", "higher", "accesses_per_s", "suite"},
	{"cache.memory_ratio", "frac", "lower", "accesses_per_s", "suite"},
	{"cache.access_ns", "ns", "lower", "cpu_s_per_maccess", "suite"},
	{"cache.share", "frac", "lower", "cpu_s_per_maccess", "suite"},
	{"pagetable.translate_ns", "ns", "lower", "accesses_per_s", "host-churn"},
	{"guestos.faults_per_kaccess", "count", "lower", "wall_s", "fault-path"},
	{"guestos.fault_ns.default", "ns", "lower", "wall_s", "fault-path"},
	{"guestos.fault_ns.ptemagnet", "ns", "lower", "wall_s", "fault-path"},
	{"guestos.free_ns", "ns", "lower", "wall_s", "host-churn"},
	{"guestos.share", "frac", "lower", "wall_s", "fault-path"},
	{"core.hit_ratio", "frac", "higher", "wall_s", "fault-path"},
	{"core.fault_ns", "ns", "lower", "wall_s", "fault-path"},
	{"core.share", "frac", "lower", "wall_s", "fault-path"},
	{"buddy.calls_per_fault", "count", "lower", "wall_s", "fault-path"},
	{"buddy.splits_per_alloc", "count", "lower", "wall_s", "fault-path"},
	{"buddy.alloc_ns", "ns", "lower", "wall_s", "fault-path"},
	{"buddy.free_ns", "ns", "lower", "wall_s", "host-churn"},
	{"buddy.share", "frac", "lower", "wall_s", "fault-path"},
	{"hostos.faults_per_kaccess", "count", "lower", "wall_s", "fault-path"},
	{"hostos.fault_ns", "ns", "lower", "wall_s", "fault-path"},
	{"hostos.share", "frac", "lower", "wall_s", "fault-path"},
	{"balloon.watermark_hits", "count", "lower", "wall_s", "host-churn"},
	{"balloon.inflated_pages", "count", "lower", "wall_s", "host-churn"},
	{"balloon.unbacked_frames", "count", "lower", "wall_s", "host-churn"},
	{"balloon.check_ns", "ns", "lower", "wall_s", "host-churn"},
	{"migrate.rounds", "count", "lower", "wall_s", "host-churn"},
	{"migrate.pages_copied", "count", "lower", "wall_s", "host-churn"},
	{"migrate.ms", "ms", "lower", "wall_s", "host-churn"},
	{"runtime.alloc_bytes_per_access", "B", "lower", "cpu_s_per_maccess", "suite"},
	{"runtime.gc_cycles", "count", "lower", "cpu_s_per_maccess", "suite"},
	{"trace.overhead_frac", "frac", "lower", "", ""},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never uses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
