// Live-migration scenario set: a colocated guest (pagerank + stress-ng) is
// paused at a quarter of its access budget and pre-copy-migrated onto a
// busy destination host, then run to completion there. The sweep contrasts
// the default allocator with PTEMagnet and demonstrates the central
// consequence of §3.2: host-PT fragmentation is a property of the
// gva→gpa mapping, so it travels with the guest image — migration neither
// cures a fragmented default guest nor costs PTEMagnet its packing.
package sim

import (
	"fmt"
	"strings"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/migrate"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/vm"
)

// MigrationScenario is one live-migration configuration: the source
// guest's allocator policy, the dirty-log sizing, and the shared scale.
type MigrationScenario struct {
	// Policy selects the migrated guest's allocator.
	Policy guestos.AllocPolicy
	// DirtyLogEntries sizes the source's PML-style dirty-log buffer
	// (0 = hostos.DefaultDirtyLogEntries). Undersizing it forces
	// overflow→full-rescan rounds.
	DirtyLogEntries int
	// Scale sizes both hosts and the guest; Seed drives all randomness.
	Scale Scale
	Seed  int64
}

// Fingerprint hashes the full configuration (telemetry identity).
func (s MigrationScenario) Fingerprint() string {
	return obs.Fingerprint(fmt.Sprintf("%+v", s))
}

// Identity returns a human-readable label.
func (s MigrationScenario) Identity() string {
	name := "migrate/" + s.Policy.String()
	if s.DirtyLogEntries != 0 {
		name += fmt.Sprintf("/pml%d", s.DirtyLogEntries)
	}
	return name
}

// MigrationRunResult bundles everything measured in one migration run.
type MigrationRunResult struct {
	// Name is the sweep job name ("" when run outside MigrationSet).
	Name     string
	Scenario MigrationScenario
	// Migration is the copy-protocol report: rounds, page traffic,
	// downtime in access-units.
	Migration migrate.Report
	// FragBefore and FragAfter are the guest's host-PT fragmentation
	// (§3.2, combined over its processes) at the pause point on the source
	// and after completion on the destination.
	FragBefore metrics.FragReport
	FragAfter  metrics.FragReport
	// PostWalk holds the walker counters the guest accumulated on the
	// destination (cold TLBs and walk caches at adoption), and
	// PostAccesses the guest accesses they amortize over.
	PostWalk     nested.Stats
	PostAccesses uint64
	// Report is the destination machine's post-run observation; the
	// migrated guest is its last GuestReport.
	Report vm.Report
}

// PostWalkCyclesPerAccess is the post-migration translation cost.
func (r MigrationRunResult) PostWalkCyclesPerAccess() float64 {
	if r.PostAccesses == 0 {
		return 0
	}
	return float64(r.PostWalk.WalkCycles) / float64(r.PostAccesses)
}

// spec declares the move: the paper's colocation (pagerank primary,
// stress-ng fragmenter) in one guest, migrated onto a destination host of
// the same sizing and quantum, so the adopted guest's tasks interleave
// under the same schedule, beside one default-policy pressure tenant that
// keeps the host busy while the migrated guest finishes.
func (s MigrationScenario) spec() runSpec {
	sp := Scenario{Benchmark: "pagerank", Corunners: []string{"stress-ng"}, Policy: s.Policy, Scale: s.Scale, Seed: s.Seed}.spec()
	sp.identity, sp.fingerprint = s.Identity(), s.Fingerprint()
	sp.migrateTo = &machineSpec{
		memBytes: s.Scale.HostMemBytes,
		scale:    s.Scale,
		tenants: []tenant{{
			// A seed far outside the source's per-corunner ladder.
			cfg:       vm.GuestConfig{MemBytes: s.Scale.GuestMemBytes, Policy: guestos.PolicyDefault, Seed: s.Seed + 500},
			corunners: []string{"stress-ng"},
		}},
	}
	sp.dirtyLogEntries = s.DirtyLogEntries
	return sp
}

// result reduces a finished migration run: what the move cost (copy
// rounds, downtime) and what it preserved (fragmentation).
func (s MigrationScenario) result(o outcome) MigrationRunResult {
	final := o.guest.Snapshot()
	return MigrationRunResult{
		Scenario:     s,
		Migration:    o.migration,
		FragBefore:   o.fragBefore,
		FragAfter:    o.report.Guests[o.guest.Index()].Frag,
		PostWalk:     final.Walker.Delta(o.adopted.Walker),
		PostAccesses: final.Accesses - o.adopted.Accesses,
		Report:       o.report,
	}
}

// migrationJobNames is the sweep's declared job order: the default
// allocator, PTEMagnet, and PTEMagnet with a deliberately undersized
// 32-entry dirty log to exercise the overflow→full-rescan path.
var migrationJobNames = []string{"default", "ptemagnet", "ptemagnet/pml32"}

func migrationJobScenario(name string, sc Scale, seed int64) MigrationScenario {
	s := MigrationScenario{Policy: guestos.PolicyDefault, Scale: sc, Seed: seed}
	switch name {
	case "ptemagnet":
		s.Policy = guestos.PolicyPTEMagnet
	case "ptemagnet/pml32":
		s.Policy = guestos.PolicyPTEMagnet
		s.DirtyLogEntries = 32
	}
	return s
}

// MigrationResult covers the migration sweep, in declared job order.
type MigrationResult struct {
	Entries []MigrationRunResult
}

// MigrationSet declares the migration sweep as an engine set.
func MigrationSet(sc Scale, seed int64) engine.Set[MigrationRunResult, MigrationResult] {
	var jobs []engine.Scenario[MigrationRunResult]
	for _, name := range migrationJobNames {
		s := migrationJobScenario(name, sc, seed)
		jobs = append(jobs, job(name, s.spec(), s.result))
	}
	return engine.Set[MigrationRunResult, MigrationResult]{
		Name:      "migration",
		Scenarios: jobs,
		Reduce: func(res engine.Results[MigrationRunResult]) (MigrationResult, error) {
			if err := res.FailedErr(); err != nil {
				return MigrationResult{}, err
			}
			var out MigrationResult
			for _, name := range migrationJobNames {
				r, _ := res.Get(name)
				r.Name = name
				out.Entries = append(out.Entries, r)
			}
			return out, nil
		},
	}
}

// String renders the sweep as one table.
func (r MigrationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live migration: pagerank+stress-ng guest moved to a busy host at 1/4 of its budget\n")
	fmt.Fprintf(&b, "  %-16s  %6s  %7s  %7s  %8s  %8s  %4s  %-13s  %s\n",
		"policy", "rounds", "copied", "redirt", "stopcopy", "downtime", "ovf", "frag pre→post", "post-walk cyc/acc")
	for _, e := range r.Entries {
		m := e.Migration
		fmt.Fprintf(&b, "  %-16s  %6d  %7d  %7d  %8d  %8d  %4d  %5.2f → %-5.2f  %.2f\n",
			e.Name, m.Rounds, m.PagesCopied, m.PagesRedirtied, m.StopCopyPages,
			m.DowntimeAccesses, m.LogOverflows,
			e.FragBefore.Mean, e.FragAfter.Mean, e.PostWalkCyclesPerAccess())
	}
	return b.String()
}
