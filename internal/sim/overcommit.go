// The overcommit sweep: a host whose tenants' combined guest memory
// exceeds host-physical memory (1.25×–2×), kept alive by the balloon
// controller. Even slots run a measured pagerank primary (default vs
// PTEMagnet per job); odd slots are objdet pressure guests whose
// inference arenas churn allocate-and-free — easy balloon fodder. The
// sweep demonstrates the robustness contract: every configuration must
// complete with zero surfaced OOMError, with the controller breaking
// PTEMagnet reservations and swapping cold pages to fit. Exhausted jobs
// degrade to failed rows alongside the completed ones, chaos-style.
package sim

import (
	"fmt"
	"strings"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/vm"
)

// OvercommitScenario is one overcommitted-host configuration: how hard
// the host is oversubscribed and which allocator the primaries run.
type OvercommitScenario struct {
	// Policy is the primary guests' allocator; pressure guests always run
	// the default allocator.
	Policy guestos.AllocPolicy
	// RatioPct is the overcommit ratio in percent: combined guest memory
	// as a fraction of host memory (150 = guests declare 1.5× the host).
	RatioPct int
	// NumVMs is the tenant count (even slots primaries, odd pressure).
	NumVMs int
	// Scale sizes the workloads; guest and host memory are derived from
	// it per role (see spec), not taken verbatim.
	Scale Scale
	Seed  int64
	// SampleEvery forwards to the §6.2 gauge (0 = a sensible default).
	SampleEvery uint64
}

// Fingerprint hashes the full configuration (telemetry identity).
func (s OvercommitScenario) Fingerprint() string {
	return obs.Fingerprint(fmt.Sprintf("%+v", s))
}

// Identity returns a human-readable label.
func (s OvercommitScenario) Identity() string {
	return fmt.Sprintf("oc%d/%s", s.RatioPct, s.Policy)
}

// spec declares the oversubscribed host, balloon controller armed, with
// role-derived guest sizes: primaries get 1.5× their dataset, pressure
// guests 1.5× their co-runner footprint, so the declared total tracks
// what the workloads actually touch rather than one uniform oversized
// figure. The host is sized to put that total at RatioPct percent of it.
func (s OvercommitScenario) spec() runSpec {
	ms := machineSpec{scale: s.Scale, balloon: true}
	var combined uint64
	for i := 0; i < s.NumVMs; i++ {
		t := tenant{cfg: vm.GuestConfig{MemBytes: arch.AlignUp(s.Scale.DatasetBytes*3/2, arch.PageSize), Policy: s.Policy}, primary: "pagerank"}
		if i%2 == 1 {
			t = tenant{cfg: vm.GuestConfig{MemBytes: arch.AlignUp(s.Scale.CorunnerFootprint*3/2, arch.PageSize), Policy: guestos.PolicyDefault}, corunners: []string{"objdet"}}
		}
		t.cfg.Seed = s.Seed + int64(i)*10
		ms.tenants = append(ms.tenants, t)
		combined += t.cfg.MemBytes
	}
	ms.memBytes = arch.AlignUp(combined*100/uint64(s.RatioPct), arch.PageSize)
	return runSpec{identity: s.Identity(), fingerprint: s.Fingerprint(), machine: ms, sampleEvery: s.SampleEvery}
}

// BuildOvercommitMachine assembles the oversubscribed host — balloon
// controller armed — and every tenant's guest stack without running.
func BuildOvercommitMachine(s OvercommitScenario) (*vm.Machine, error) {
	if s.NumVMs < 2 {
		return nil, fmt.Errorf("sim: overcommit scenario needs at least two tenants")
	}
	if s.RatioPct < 100 {
		return nil, fmt.Errorf("sim: overcommit ratio %d%% is not overcommitted", s.RatioPct)
	}
	return s.spec().machine.build()
}

// OvercommitRunResult is one overcommit job's outcome. A Failed row
// means the run surfaced an error (an OOMError ballooning could not
// absorb, typically) — the acceptance bar is that no row fails.
type OvercommitRunResult struct {
	Name     string
	RatioPct int
	Policy   string
	Failed   bool
	// HostMemBytes and CombinedGuestBytes document the oversubscription.
	HostMemBytes       uint64
	CombinedGuestBytes uint64
	// PrimarySteadyCycles sums SteadyCycles over the primaries;
	// PrimaryFragMean averages their host-PT fragmentation; HostFragMean
	// is the host-wide §3.2 rollup.
	PrimarySteadyCycles uint64
	PrimaryFragMean     float64
	HostFragMean        float64
	// Balloon is the controller's activity for the run.
	Balloon balloon.Stats
}

// OvercommitResult is the reduced sweep, in declared job order.
type OvercommitResult struct {
	NumVMs int
	Rows   []OvercommitRunResult
}

// result reduces a finished run to the job's row.
func (s OvercommitScenario) result(o outcome) OvercommitRunResult {
	res := OvercommitRunResult{
		Name:         s.Identity(),
		RatioPct:     s.RatioPct,
		Policy:       s.Policy.String(),
		HostMemBytes: o.m.HostConfig().HostMemBytes,
		HostFragMean: o.report.HostFrag.Mean,
		Balloon:      o.m.Balloon().Snapshot(),
	}
	for _, g := range o.m.Guests() {
		res.CombinedGuestBytes += g.Config().MemBytes
	}
	res.PrimarySteadyCycles, res.PrimaryFragMean = primaryTotals(o.report)
	return res
}

// OvercommitRatios are the oversubscription levels the set sweeps.
var OvercommitRatios = []int{125, 150, 200}

// overcommitNumVMs is the fixed packing: two pagerank primaries and two
// objdet pressure guests.
const overcommitNumVMs = 4

// OvercommitSet declares the sweep: {default, ptemagnet} × the ratio
// ladder. The reduce step degrades gracefully like the chaos sweep:
// failed jobs become failed rows, completed rows stand, and the errors
// ride alongside via Results.FailedErr.
func OvercommitSet(sc Scale, seed int64) engine.Set[OvercommitRunResult, OvercommitResult] {
	var jobs []OvercommitScenario
	var scenarios []engine.Scenario[OvercommitRunResult]
	for _, ratio := range OvercommitRatios {
		for _, policy := range []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet} {
			s := OvercommitScenario{
				Policy:   policy,
				RatioPct: ratio,
				NumVMs:   overcommitNumVMs,
				Scale:    sc,
				Seed:     engine.DeriveSeed(seed, fmt.Sprintf("overcommit/oc%d/%s", ratio, policy)),
			}
			jobs = append(jobs, s)
			scenarios = append(scenarios, job(s.Identity(), s.spec(), s.result))
		}
	}
	return engine.Set[OvercommitRunResult, OvercommitResult]{
		Name:      "overcommit",
		Scenarios: scenarios,
		Reduce: func(res engine.Results[OvercommitRunResult]) (OvercommitResult, error) {
			out := OvercommitResult{NumVMs: overcommitNumVMs}
			for _, s := range jobs {
				if row, ok := res.Get(s.Identity()); ok {
					out.Rows = append(out.Rows, row)
					continue
				}
				out.Rows = append(out.Rows, OvercommitRunResult{
					Name:     s.Identity(),
					RatioPct: s.RatioPct,
					Policy:   s.Policy.String(),
					Failed:   true,
				})
			}
			return out, res.FailedErr()
		},
	}
}

// row pairs for the def→mag comparison in String.
func (r OvercommitResult) rowFor(ratio int, policy string) (OvercommitRunResult, bool) {
	for _, row := range r.Rows {
		if row.RatioPct == ratio && row.Policy == policy {
			return row, true
		}
	}
	return OvercommitRunResult{}, false
}

// String renders the sweep as one table: per ratio, the default and
// PTEMagnet rows side by side, with the balloon activity that kept each
// run alive.
func (r OvercommitResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overcommit: %d VMs (pagerank primaries + objdet pressure guests), balloon controller armed\n", r.NumVMs)
	fmt.Fprintf(&b, "  %-6s  %-9s  %-9s  %-20s  %-20s  %-11s  %s\n",
		"ratio", "guest-mem", "host-mem", "host frag (def→mag)", "primary frag (d→m)", "improvement", "balloon unback/swap (def | mag)")
	for _, ratio := range OvercommitRatios {
		def, okD := r.rowFor(ratio, "default")
		mag, okM := r.rowFor(ratio, "ptemagnet")
		if !okD && !okM {
			continue
		}
		outcome := func(row OvercommitRunResult, ok bool) string {
			if !ok || row.Failed {
				return "FAILED"
			}
			return fmt.Sprintf("%d/%d", row.Balloon.UnbackedFrames, row.Balloon.SwappedPages)
		}
		frag := func(row OvercommitRunResult) string {
			if row.Failed {
				return "-"
			}
			return fmt.Sprintf("%.2f", row.HostFragMean)
		}
		pfrag := func(row OvercommitRunResult) string {
			if row.Failed {
				return "-"
			}
			return fmt.Sprintf("%.2f", row.PrimaryFragMean)
		}
		improvement := "-"
		if !def.Failed && !mag.Failed && okD && okM {
			improvement = fmt.Sprintf("%+6.1f%%", metrics.Speedup(def.PrimarySteadyCycles, mag.PrimarySteadyCycles))
		}
		// Sizing is policy-independent; failed rows carry zeros, so take
		// it from whichever row completed.
		combined, hostMem := def.CombinedGuestBytes, def.HostMemBytes
		if combined == 0 {
			combined, hostMem = mag.CombinedGuestBytes, mag.HostMemBytes
		}
		fmt.Fprintf(&b, "  %-6s  %-9s  %-9s  %8s → %-9s  %8s → %-9s  %-11s  %s | %s\n",
			fmt.Sprintf("%d%%", ratio), fmtMB(combined), fmtMB(hostMem),
			frag(def), frag(mag), pfrag(def), pfrag(mag), improvement,
			outcome(def, okD), outcome(mag, okM))
	}
	failed := 0
	for _, row := range r.Rows {
		if row.Failed {
			failed++
		}
	}
	if failed == 0 {
		fmt.Fprintf(&b, "  every configuration completed without a surfaced OOM\n")
	} else {
		fmt.Fprintf(&b, "  %d configuration(s) FAILED despite ballooning\n", failed)
	}
	return b.String()
}

// fmtMB renders a byte count as whole-or-tenth megabytes.
func fmtMB(n uint64) string {
	mb := float64(n) / (1 << 20)
	if mb == float64(uint64(mb)) {
		return fmt.Sprintf("%dMB", uint64(mb))
	}
	return fmt.Sprintf("%.1fMB", mb)
}
