// The chaos sweep: default vs PTEMagnet under escalating deterministic
// fault rates, plus mid-migration fault-and-retry scenarios. Each job
// runs a colocated guest (the migration pairing: pagerank primary,
// stress-ng fragmenter) with a faults.Plan armed on the machine's choke
// points, through the engine's RetryPolicy, so the sweep demonstrates the
// recovery contract end to end: transient buddy failures are absorbed
// in-run by the guest's reclaim/fallback paths, an injected host OOM
// kills the attempt and the retry replays clean, and a mid-migration
// destination OOM (or cancel) aborts cleanly, leaves the source running,
// and succeeds on the next attempt. Exhausted scenarios degrade
// gracefully: the table reports them as failed rows alongside the
// completed ones, with the sweep error carried next to the partial
// result.
package sim

import (
	"context"
	"fmt"
	"strings"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/obs"
)

// DefaultChaosRetry is the retry policy the chaos sweep applies when
// WithRetry is absent: up to three attempts per scenario, retrying only
// transient injected faults.
func DefaultChaosRetry() engine.RetryPolicy {
	return engine.RetryPolicy{MaxAttempts: 3, Retryable: faults.IsTransient}
}

// chaosJob is one sweep scenario: the run to make (a workload run or a
// migration) and the fault campaign to arm on it.
type chaosJob struct {
	name string
	cfg  faults.Config
	spec runSpec
}

// newChaosJob declares a chaos job running sp under cfg. config is the
// scenario sp was declared from; with cfg it makes up the telemetry
// fingerprint.
func newChaosJob(name string, cfg faults.Config, config any, sp runSpec) chaosJob {
	sp.identity = name
	sp.fingerprint = obs.Fingerprint(fmt.Sprintf("%+v|%+v", config, cfg))
	return chaosJob{name: name, cfg: cfg, spec: sp}
}

// chaosState accumulates what failed attempts of one scenario left
// behind. Attempts of one scenario run sequentially on one worker, so no
// locking is needed, and the totals are deterministic.
type chaosState struct {
	// failures counts attempts that errored before one succeeded.
	failures int
	// injected counts faults injected by those failed attempts.
	injected uint64
}

// ChaosRunResult is one chaos scenario's outcome (the final attempt's
// measurements plus the retry history filled in by the reduce step).
type ChaosRunResult struct {
	Name string
	// Attempts is the total attempts used (1 = succeeded first try); for
	// a failed row it is the attempts exhausted.
	Attempts int
	// Injected counts faults injected across every attempt, failed ones
	// included.
	Injected uint64
	// Recovered marks scenarios that failed at least once and then
	// succeeded; Failed marks scenarios that exhausted every attempt.
	Recovered bool
	Failed    bool
	// Absorbed counts injected host OOMs the balloon-armed host absorbed
	// in-run instead of failing the attempt — the "degraded" outcome.
	Absorbed uint64
	// Frag is the host-PT fragmentation at the end of the winning run
	// (the primary task's for workload jobs, the migrated guest's for
	// migration jobs).
	Frag float64
	// SteadyCycles is the primary's steady-state cycle total (workload
	// jobs only).
	SteadyCycles uint64
	// Rounds, LogOverflows and Downtime are the migration report's
	// headline counters (migration jobs only).
	Migration    bool
	Rounds       int
	LogOverflows uint64
	Downtime     uint64
}

// ChaosResult is the reduced chaos sweep, in declared job order.
type ChaosResult struct {
	Rows []ChaosRunResult
}

// String renders the sweep as one table.
func (r ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: pagerank+stress-ng under injected faults (retry: transient faults only)\n")
	fmt.Fprintf(&b, "  %-20s  %8s  %8s  %-9s  %6s  %12s  %s\n",
		"scenario", "attempts", "injected", "outcome", "frag", "steady-cyc", "migration (rounds/ovf/downtime)")
	for _, row := range r.Rows {
		outcome := "ok"
		if row.Absorbed > 0 {
			outcome = "degraded"
		}
		if row.Recovered {
			outcome = "recovered"
		}
		if row.Failed {
			outcome = "FAILED"
		}
		mig := "-"
		if row.Migration && !row.Failed {
			mig = fmt.Sprintf("%d/%d/%d", row.Rounds, row.LogOverflows, row.Downtime)
		}
		frag := "-"
		steady := "-"
		if !row.Failed {
			frag = fmt.Sprintf("%.2f", row.Frag)
			if !row.Migration {
				steady = fmt.Sprintf("%d", row.SteadyCycles)
			}
		}
		fmt.Fprintf(&b, "  %-20s  %8d  %8d  %-9s  %6s  %12s  %s\n",
			row.Name, row.Attempts, row.Injected, outcome, frag, steady, mig)
	}
	return b.String()
}

// chaosFaultLevels is the built-in escalation ladder for the workload
// jobs. "clean" is the zero-fault control; "mild" injects transient
// buddy-allocation failures the guest absorbs in-run; "heavy" adds an
// injected host OOM that kills the first attempt, forcing a retry.
func chaosFaultLevels(seed int64, override faults.Config) []struct {
	name string
	cfg  faults.Config
} {
	type level = struct {
		name string
		cfg  faults.Config
	}
	if override.Enabled() {
		// WithFaultPlan replaces the ladder: one control plus the
		// caller's campaign, both policies.
		return []level{{name: "clean"}, {name: "custom", cfg: override}}
	}
	mk := func(name string, cfg faults.Config) level {
		cfg.Seed = engine.DeriveSeed(seed, "chaos/faults/"+name)
		return level{name: name, cfg: cfg}
	}
	return []level{
		{name: "clean"},
		mk("mild", faults.Config{BuddyFails: 6, BuddyFailSpan: 1024}),
		mk("heavy", faults.Config{BuddyFails: 24, BuddyFailSpan: 1024, HostOOMs: 1, HostOOMSpan: 128}),
	}
}

// chaosJobs declares the sweep: {default, ptemagnet} × the fault ladder,
// then the migration fault scenarios.
func chaosJobs(sc Scale, seed int64, override faults.Config) []chaosJob {
	var jobs []chaosJob
	// workload declares a colocated pagerank+stress-ng run. balloon arms
	// the host's pressure controller, giving the host-oom site a third
	// outcome besides retry and fail: the injected OOM is absorbed in-run
	// by the balloon-then-retry path (degradation).
	workload := func(name string, policy guestos.AllocPolicy, cfg faults.Config, balloon bool) {
		base := Scenario{
			Benchmark: "pagerank",
			Corunners: []string{"stress-ng"},
			Policy:    policy,
			Scale:     sc,
			Seed:      engine.DeriveSeed(seed, "chaos/"+name),
		}
		sp := base.spec()
		sp.machine.balloon = balloon
		jobs = append(jobs, newChaosJob(name, cfg, base, sp))
	}
	policies := []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet}
	for _, p := range policies {
		for _, lvl := range chaosFaultLevels(seed, override) {
			workload(p.String()+"/"+lvl.name, p, lvl.cfg, false)
		}
	}
	// Balloon-armed host OOM: the same injected host OOM as "heavy", but
	// with the pressure controller armed the allocation takes the
	// balloon-then-retry path and the attempt completes — outcome
	// "degraded" rather than recovery-by-retry.
	for _, p := range policies {
		name := p.String() + "/oom-absorb"
		cfg := faults.Config{HostOOMs: 1, HostOOMSpan: 128}
		cfg.Seed = engine.DeriveSeed(seed, "chaos/faults/"+name)
		workload(name, p, cfg, true)
	}
	// Mid-migration faults: a destination OOM at round 1 with the dirty
	// log forced to overflow (exercising the PR 8 rescan path on the
	// retry too), and a cancel at round 1. Both fail the first attempt
	// and migrate cleanly on the second.
	migJobs := []struct {
		name string
		cfg  faults.Config
	}{
		{"migrate/oom-retry", faults.Config{MigrateDestOOMRound: 1, DirtyLogOverflowEvery: 64}},
		{"migrate/cancel-retry", faults.Config{MigrateCancelRound: 1}},
	}
	for _, mj := range migJobs {
		cfg := mj.cfg
		cfg.Seed = engine.DeriveSeed(seed, "chaos/faults/"+mj.name)
		mig := MigrationScenario{
			Policy: guestos.PolicyPTEMagnet,
			Scale:  sc,
			Seed:   engine.DeriveSeed(seed, "chaos/"+mj.name),
		}
		jobs = append(jobs, newChaosJob(mj.name, cfg, mig, mig.spec()))
	}
	return jobs
}

// runChaosJob executes one attempt of a chaos job: materialize the
// attempt's plan, arm it, run, and record what was injected, appending
// the faults.* and retry.* counter groups to the RunRecord (only chaos
// runs register them, so zero-plan telemetry keeps its pre-injection
// schema). Failures are folded into st before returning, so the retry
// history survives the attempt.
func runChaosJob(ctx context.Context, j chaosJob, st *chaosState) (res ChaosRunResult, err error) {
	plan := faults.NewPlan(j.cfg, engine.AttemptFrom(ctx))
	defer func() {
		if err != nil {
			st.failures++
			st.injected += plan.InjectedTotal()
		}
	}()
	sp := j.spec
	sp.plan = plan
	attempt, failures, priorInjected := uint64(plan.Attempt()), uint64(st.failures), st.injected
	sp.extra = func(reg *obs.Registry) {
		plan.RegisterObs(reg, "faults.")
		reg.Counter("retry.attempt", func() uint64 { return attempt })
		reg.Counter("retry.prior_failures", func() uint64 { return failures })
		reg.Counter("retry.prior_injected", func() uint64 { return priorInjected })
	}
	o, err := run(ctx, sp)
	if err != nil {
		return ChaosRunResult{}, err
	}
	res = ChaosRunResult{
		Name:     j.name,
		Injected: plan.InjectedTotal(),
		Absorbed: plan.AbsorbedHostOOMs(),
	}
	if o.guest == nil {
		res.Frag = o.report.Tasks[0].Frag.Mean
		res.SteadyCycles = o.report.Tasks[0].SteadyCycles
		return res, nil
	}
	res.Migration = true
	res.Frag = o.report.Guests[o.guest.Index()].Frag.Mean
	res.Rounds = o.migration.Rounds
	res.LogOverflows = o.migration.LogOverflows
	res.Downtime = o.migration.DowntimeAccesses
	return res, nil
}

// ChaosSet declares the chaos sweep as an engine set with its retry
// policy. The reduce step degrades gracefully: exhausted scenarios
// become failed rows with their retry history, the completed rows stand,
// and the scenario errors ride alongside via Results.FailedErr.
func ChaosSet(sc Scale, seed int64, override faults.Config, retry engine.RetryPolicy) engine.Set[ChaosRunResult, ChaosResult] {
	jobs := chaosJobs(sc, seed, override)
	if retry.MaxAttempts == 0 && retry.Retryable == nil {
		retry = DefaultChaosRetry()
	} else if retry.Retryable == nil {
		retry.Retryable = faults.IsTransient
	}
	states := make(map[string]*chaosState, len(jobs))
	var scenarios []engine.Scenario[ChaosRunResult]
	for _, j := range jobs {
		j := j
		st := &chaosState{}
		states[j.name] = st
		scenarios = append(scenarios, engine.Scenario[ChaosRunResult]{
			Name: j.name,
			Run: func(ctx context.Context) (ChaosRunResult, error) {
				return runChaosJob(ctx, j, st)
			},
		})
	}
	return engine.Set[ChaosRunResult, ChaosResult]{
		Name:      "chaos",
		Scenarios: scenarios,
		Retry:     retry,
		Reduce: func(res engine.Results[ChaosRunResult]) (ChaosResult, error) {
			var out ChaosResult
			for _, j := range jobs {
				st := states[j.name]
				if row, ok := res.Get(j.name); ok {
					row.Attempts = st.failures + 1
					row.Injected += st.injected
					row.Recovered = st.failures > 0
					out.Rows = append(out.Rows, row)
					continue
				}
				out.Rows = append(out.Rows, ChaosRunResult{
					Name:      j.name,
					Migration: j.spec.migrateTo != nil,
					Attempts:  st.failures,
					Injected:  st.injected,
					Failed:    true,
				})
			}
			return out, res.FailedErr()
		},
	}
}
