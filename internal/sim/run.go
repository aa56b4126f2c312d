package sim

import (
	"context"
	"fmt"

	"ptemagnet/internal/balloon"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/migrate"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/vm"
)

// The one scenario runner. Every scenario kind (single-VM, multi-tenant,
// overcommitted, migrated, fault-injected) declares a runSpec; run builds
// its machine, runs it, and emits its RunRecord, and the kind only reduces
// the finished run to its typed result.

// tenant is one VM of a machineSpec: its guest configuration and the
// workloads booted inside it.
type tenant struct {
	cfg       vm.GuestConfig
	primary   string
	corunners []string
}

// populate adds the tenant's tasks to its booted guest g, seeding them
// from the guest's own seed (co-runner i gets seed+100+i).
func (t tenant) populate(g *vm.Guest, sc Scale) error {
	if t.primary != "" {
		prog, err := NewBenchmark(t.primary, sc, t.cfg.Seed)
		if err != nil {
			return err
		}
		if _, err := g.AddTask(prog, vm.RolePrimary); err != nil {
			return err
		}
	}
	for i, name := range t.corunners {
		co, err := NewCorunner(name, sc, t.cfg.Seed+int64(i)+100)
		if err != nil {
			return err
		}
		if _, err := g.AddTask(co, vm.RoleCorunner); err != nil {
			return err
		}
	}
	return nil
}

// machineSpec declares one host and the tenants packed onto it.
type machineSpec struct {
	memBytes uint64
	// scale sizes the workloads and, through LLCBytes/L2Bytes, the caches.
	scale    Scale
	ptLevels int
	// balloon arms the host's overcommit pressure controller.
	balloon bool
	tenants []tenant
}

// build assembles the machine and boots every tenant's tasks.
func (ms machineSpec) build() (*vm.Machine, error) {
	hc := vm.HostConfig{
		HostMemBytes: ms.memBytes,
		// Quantum 2: aggressive fault interleaving, approximating truly
		// concurrent threads on separate cores (calibrated against Table 1).
		Quantum:  2,
		PTLevels: ms.ptLevels,
		Balloon:  balloon.Config{Enabled: ms.balloon},
	}
	if sc := ms.scale; sc.LLCBytes != 0 || sc.L2Bytes != 0 {
		cc := cache.DefaultConfig(8)
		if sc.LLCBytes != 0 {
			cc.LLC.SizeBytes = sc.LLCBytes
		}
		if sc.L2Bytes != 0 {
			cc.L2.SizeBytes = sc.L2Bytes
		}
		hc.Cache = cc
	}
	for _, t := range ms.tenants {
		hc.Guests = append(hc.Guests, t.cfg)
	}
	m, err := vm.NewHost(hc)
	if err != nil {
		return nil, err
	}
	for i, t := range ms.tenants {
		if err := t.populate(m.Guests()[i], ms.scale); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runSpec declares one scenario run: the machine, how to run it, and the
// RunRecord identity used outside an engine set.
type runSpec struct {
	identity, fingerprint string
	machine               machineSpec
	// sampleEvery is the §6.2 gauge interval (0 = Accesses/64, or 1024).
	sampleEvery         uint64
	stopCorunnersAtInit bool
	events              []vm.RunEvent
	// migrateTo, when set, replaces the sampled run with pause → migrate
	// → finish: the machine runs to a quarter of its access budget, guest
	// 0 pre-copy-migrates onto a fresh migrateTo machine through a
	// dirtyLogEntries-sized dirty log (0 = the hostos default), and the
	// run finishes there.
	migrateTo       *machineSpec
	dirtyLogEntries int
	// plan, when set, is armed on the machine and on the migration.
	plan *faults.Plan
	// extra registers counter groups after the machine's own (and after
	// migrate.*) in the RunRecord.
	extra func(*obs.Registry)
}

// outcome is a finished run, handed to the scenario kind's reducer.
type outcome struct {
	// m is the machine the run finished on (the destination after a
	// migration); report is its post-run observation.
	m      *vm.Machine
	report vm.Report
	// After a migration: the moved guest, the copy report, the guest's
	// host-PT fragmentation at the pause point, and its counters at
	// adoption.
	guest      *vm.Guest
	migration  migrate.Report
	fragBefore metrics.FragReport
	adopted    vm.GuestStats
}

// run builds sp's machine and runs it. Each call builds its own machines,
// so concurrent runs (the engine's workers) share no mutable state.
//
// When ctx carries an obs.Collector, run emits one RunRecord: the set
// identity from the engine's ScenarioInfo (set "adhoc" and sp.identity
// outside a set), the configuration fingerprint, the wall-clock time
// through engine.StartTimer, and the final machine's full counter
// registry.
func run(ctx context.Context, sp runSpec) (outcome, error) {
	stop := engine.StartTimer()
	m, err := sp.machine.build()
	if err != nil {
		return outcome{}, err
	}
	m.InstallFaultPlan(sp.plan)
	o := outcome{m: m}
	if sp.migrateTo != nil {
		o, err = migrateRun(ctx, m, sp)
	} else {
		sampleEvery := sp.sampleEvery
		if sampleEvery == 0 {
			if sampleEvery = sp.machine.scale.Accesses / 64; sampleEvery == 0 {
				sampleEvery = 1024
			}
		}
		err = m.RunWith(ctx,
			vm.WithStopCorunnersAtInit(sp.stopCorunnersAtInit),
			vm.WithSampleEvery(sampleEvery),
			vm.WithEvents(sp.events...))
	}
	if err != nil {
		return outcome{}, err
	}
	o.report = o.m.Observe()
	if c := obs.CollectorFrom(ctx); c != nil {
		reg := o.m.Registry()
		if sp.migrateTo != nil {
			o.migration.RegisterObs(reg, "migrate.")
		}
		if sp.extra != nil {
			sp.extra(reg)
		}
		rec := obs.RunRecord{
			Set:         "adhoc",
			Scenario:    sp.identity,
			Fingerprint: sp.fingerprint,
			ElapsedMS:   stop().Milliseconds(),
			Counters:    reg.Snapshot(),
		}
		if info, ok := engine.ScenarioInfoFrom(ctx); ok {
			rec.Set, rec.Scenario = info.Set, info.Scenario
		}
		c.Add(rec)
	}
	return o, nil
}

// migrateRun is run's pause → migrate → finish step on the source src.
func migrateRun(ctx context.Context, src *vm.Machine, sp runSpec) (outcome, error) {
	dst, err := sp.migrateTo.build()
	if err != nil {
		return outcome{}, err
	}
	pauseAt := sp.machine.scale.Accesses / 4
	if err := src.RunWith(ctx, vm.WithStopAtAccesses(pauseAt)); err != nil {
		return outcome{}, err
	}
	if src.PendingPrimaries() == 0 {
		return outcome{}, fmt.Errorf("sim: source finished before the migration point (accesses %d)", pauseAt)
	}
	g := src.Guests()[0]
	o := outcome{m: dst, guest: g, fragBefore: guestFrag(g)}
	opts := migrate.Options{
		RoundAccesses:   sp.machine.scale.Accesses / 16,
		DirtyLogEntries: sp.dirtyLogEntries,
		// A nil plan stays inert here: its hook methods are nil-safe.
		Faults: sp.plan,
	}
	if o.migration, err = migrate.MigrateCtx(ctx, g, dst, opts); err != nil {
		return outcome{}, err
	}
	o.adopted = g.Snapshot()
	return o, dst.RunWith(ctx)
}

// job declares one engine scenario that runs sp and reduces the finished
// run with result. The spec is fixed at set-declaration time, so the
// result depends only on the declaration, never on execution order.
func job[R any](name string, sp runSpec, result func(outcome) R) engine.Scenario[R] {
	return engine.Scenario[R]{Name: name, Run: func(ctx context.Context) (R, error) {
		o, err := run(ctx, sp)
		if err != nil {
			var zero R
			return zero, err
		}
		return result(o), nil
	}}
}

// primaryTotals sums SteadyCycles over every primary task in r and
// averages their host-PT fragmentation.
func primaryTotals(r vm.Report) (steadyCycles uint64, fragMean float64) {
	for _, tr := range r.Tasks {
		steadyCycles += tr.SteadyCycles
		fragMean += tr.Frag.Mean
	}
	if len(r.Tasks) > 0 {
		fragMean /= float64(len(r.Tasks))
	}
	return steadyCycles, fragMean
}
