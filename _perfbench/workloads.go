package main

import (
	"context"
	"fmt"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// step is one unit of a workload's measured pass: a registry experiment
// (or, where the registry has no such experiment, an engine set) run
// through the shared engine, emitting one RunRecord per scenario into col.
type step struct {
	name string
	run  func(ctx context.Context, eng *engine.Engine, col *obs.Collector, seed int64) error
}

// benchWorkload is one named input mix. A pass runs its steps in order;
// within a step the engine's workers take the next scenario as soon as
// their previous one finishes (a closed loop of len(workers) clients).
type benchWorkload struct {
	name  string
	steps []step
	// warm is run once during set-up, so lazy runtime growth (heap,
	// page faults of the process) is paid before timing starts.
	warm sim.Scenario
	// reps are the representative machines the traced run times layer by
	// layer.
	reps []rep
}

// rep is a representative scenario of a workload for the traced run:
// how to build its machine, how to run it, and how to make a fresh copy
// of its primary program for the workload-step replay.
type rep struct {
	name    string
	build   func() (*vm.Machine, error)
	opts    []vm.RunOpt
	primary func() (workload.Program, error)
}

var policies = []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet}

// sizes holds the scales one sizing (full or tiny) runs at.
type sizes struct {
	quick, fault sim.Scale
}

func sizing(size string) (sizes, error) {
	switch size {
	case "full":
		// fault-path: at QuickScale a §6.4 pass takes 40ms. A 2GB guest
		// (allocmicro touches 3/5 of it, ~315K first-touch faults) and a
		// 1GB sparse span make the pass last about a second.
		fault := sim.QuickScale()
		fault.GuestMemBytes = 2 << 30
		fault.HostMemBytes = 4 << 30
		fault.DatasetBytes = 1 << 30
		return sizes{quick: sim.QuickScale(), fault: fault}, nil
	case "tiny":
		// The self-test's sizing: every step and replay runs, in well
		// under a second per workload.
		q := sim.QuickScale()
		q.DatasetBytes = 2 << 20
		q.Accesses = 4000
		q.CorunnerFootprint = 2 << 20
		f := q
		f.GuestMemBytes = 16 << 20
		return sizes{quick: q, fault: f}, nil
	}
	return sizes{}, fmt.Errorf("unknown size %q (want full or tiny)", size)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"suite", "fault-path", "host-churn"}

func lookupWorkload(name, size string, seed int64) (benchWorkload, error) {
	sz, err := sizing(size)
	if err != nil {
		return benchWorkload{}, err
	}
	switch name {
	case "suite":
		// Figures 5-7 at quick scale: what users wait on, and the hot
		// translation loop (walk, TLB, cache) over many unequal scenarios.
		var reps []rep
		for _, p := range policies {
			reps = append(reps, scenarioRep(sim.Scenario{
				Benchmark: "pagerank", Corunners: sim.Corunners, Policy: p, Scale: sz.quick, Seed: seed,
			}))
		}
		return benchWorkload{
			name: name,
			steps: []step{
				registryStep("objdet-suite", sz.quick),
				registryStep("combination-suite", sz.quick),
			},
			warm: sim.Scenario{Benchmark: "pagerank", Corunners: []string{"objdet"}, Scale: sz.quick, Seed: seed},
			reps: reps,
		}, nil
	case "fault-path":
		// First-touch faults under both policies: the guest fault path,
		// PaRT, buddy and EPT faults carry the time, the caches little.
		var reps []rep
		for _, b := range []string{"allocmicro", "sparse"} {
			for _, p := range policies {
				reps = append(reps, scenarioRep(sim.Scenario{Benchmark: b, Policy: p, Scale: sz.fault, Seed: seed}))
			}
		}
		return benchWorkload{
			name:  name,
			steps: []step{registryStep("sec64", sz.fault), sparseStep(sz.fault)},
			warm:  sim.Scenario{Benchmark: "sparse", Scale: sz.fault, Seed: seed},
			reps:  reps,
		}, nil
	case "host-churn":
		// The same layers used the other way: frees, unbacking, TLB and
		// walk-cache invalidation, balloon reclaim and dirty logging.
		var reps []rep
		for _, p := range policies {
			s := sim.OvercommitScenario{Policy: p, RatioPct: 150, NumVMs: 4, Scale: sz.quick, Seed: seed}
			reps = append(reps, rep{
				name:    s.Identity(),
				build:   func() (*vm.Machine, error) { return sim.BuildOvercommitMachine(s) },
				opts:    []vm.RunOpt{vm.WithSampleEvery(sampleEvery(s.Scale))},
				primary: func() (workload.Program, error) { return sim.NewBenchmark("pagerank", s.Scale, s.Seed) },
			})
		}
		return benchWorkload{
			name: name,
			steps: []step{
				registryStep("multitenant", sz.quick),
				registryStep("overcommit", sz.quick),
				registryStep("migration", sz.quick),
			},
			warm: sim.Scenario{Benchmark: "pagerank", Corunners: []string{"objdet"}, Scale: sz.quick, Seed: seed},
			reps: reps,
		}, nil
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func registryStep(name string, sc sim.Scale) step {
	return step{name: name, run: func(ctx context.Context, eng *engine.Engine, col *obs.Collector, seed int64) error {
		_, err := sim.RunExperiment(ctx, name,
			sim.WithEngine(eng), sim.WithScale(sc), sim.WithSeed(seed), sim.WithCollector(col))
		return err
	}}
}

// sparseStep runs the §6.2 sparse adversary under both policies. The
// registry runs it only under PTEMagnet, inside sec62 beside eight
// benchmarks that are not fault-bound, so the pair is its own engine set.
func sparseStep(sc sim.Scale) step {
	return step{name: "sparse", run: func(ctx context.Context, eng *engine.Engine, col *obs.Collector, seed int64) error {
		ctx = obs.WithCollector(ctx, col)
		var jobs []engine.Scenario[sim.Result]
		for _, p := range policies {
			s := sim.Scenario{Benchmark: "sparse", Policy: p, Scale: sc, Seed: seed}
			jobs = append(jobs, engine.Scenario[sim.Result]{
				Name: "sparse/" + p.String(),
				Run:  func(ctx context.Context) (sim.Result, error) { return sim.RunCtx(ctx, s) },
			})
		}
		_, err := engine.Execute(ctx, eng, engine.Set[sim.Result, struct{}]{Name: "sparse", Scenarios: jobs})
		return err
	}}
}

func scenarioRep(s sim.Scenario) rep {
	return rep{
		name:    s.Identity(),
		build:   func() (*vm.Machine, error) { return sim.BuildMachine(s) },
		opts:    []vm.RunOpt{vm.WithSampleEvery(sampleEvery(s.Scale))},
		primary: func() (workload.Program, error) { return sim.NewBenchmark(s.Benchmark, s.Scale, s.Seed) },
	}
}

// sampleEvery mirrors the default the scenario runners apply, so a rep
// runs exactly as it does inside its experiment.
func sampleEvery(sc sim.Scale) uint64 {
	if n := sc.Accesses / 64; n != 0 {
		return n
	}
	return 1024
}
