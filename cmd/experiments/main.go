// Command experiments regenerates every table and figure of the PTEMagnet
// paper's evaluation on the simulated platform and prints paper-versus-
// measured comparisons.
//
// Usage:
//
//	experiments [-exp all|table1|fig5|fig6|fig7|table4|sec62|sec64|ablation|multitenant|migration|chaos|overcommit]
//	            [-quick] [-seed N] [-parallel N] [-progress] [-vms N] [-list]
//	            [-telemetry run.jsonl] [-telemetry-csv run.csv]
//	            [-heartbeat 30s] [-pprof localhost:6060]
//
// Experiments live in a registry (sim.Experiments); -list prints it. The
// -exp selector matches an experiment's canonical name (e.g. objdet-suite,
// granularity) or one of its aliases: fig5/fig6/fig7 select by figure,
// ablation selects the whole ablation group, and all runs the default set.
//
// -exp multitenant runs the multi-VM sweep (2/4/8 VMs on one shared host,
// plus a VM-churn scenario); -exp migration the live-migration sweep; -exp
// chaos the fault-injection-and-recovery sweep (default vs PTEMagnet under
// escalating deterministic fault rates, plus mid-migration OOM-and-retry);
// -exp overcommit the ballooned-host sweep (1.25×–2× oversubscription).
// All four are opt-in, not part of "all". -vms narrows the multitenant
// sweep to one VM count.
//
// fig5 and fig6 come from the same runs (the objdet suite) and print
// together. With -quick the reduced test scale is used (seconds instead of
// minutes); headline numbers in EXPERIMENTS.md come from the default scale.
//
// Scenarios within each experiment run through the engine's worker pool
// (-parallel, default GOMAXPROCS); results are deterministic for any
// worker count. A failing scenario does not abort the rest: partial
// results print, the error is reported, and the process exits non-zero
// at the end.
//
// -telemetry / -telemetry-csv write one RunRecord per executed scenario
// (see EXPERIMENTS.md for the schema); everything except elapsed_ms is
// byte-identical for any -parallel value. -heartbeat prints periodic
// in-flight progress on stderr; -pprof serves net/http/pprof on the given
// address for live profiling.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, a registry name, or an alias (see -list)")
	list := flag.Bool("list", false, "list the experiment registry and exit")
	quick := flag.Bool("quick", false, "use the reduced quick scale")
	seed := flag.Int64("seed", 11, "simulation seed")
	vms := flag.Int("vms", 0, "multitenant only: run a single VM count (2, 4 or 8; 0 = the full sweep)")
	parallel := flag.Int("parallel", 0, "concurrent scenarios per experiment (0 = GOMAXPROCS)")
	progress := flag.Bool("progress", false, "report per-scenario completion on stderr")
	telemetry := flag.String("telemetry", "", "write per-scenario RunRecords as JSON Lines to this file")
	telemetryCSV := flag.String("telemetry-csv", "", "write per-scenario RunRecords as CSV to this file")
	heartbeat := flag.Duration("heartbeat", 0, "report in-flight progress on stderr at this interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *list {
		for _, info := range sim.Experiments() {
			sel := info.Name
			if len(info.Tags) > 0 {
				sel += " (" + strings.Join(info.Tags, ", ") + ")"
			}
			scope := "all"
			if !info.InAll {
				scope = "opt-in"
			}
			fmt.Printf("  %-36s  %-7s  %s\n", sel, scope, info.Title)
		}
		return
	}

	selected, err := sim.MatchExperiments(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v (use -list to see the registry)\n", err)
		os.Exit(2)
	}

	sc := sim.DefaultScale()
	if *quick {
		sc = sim.QuickScale()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof server: %v\n", err)
			}
		}()
	}

	var collector *obs.Collector
	if *telemetry != "" || *telemetryCSV != "" {
		collector = &obs.Collector{}
		ctx = obs.WithCollector(ctx, collector)
	}

	eng := engine.New(*parallel)
	if *progress {
		eng.OnEvent = func(ev engine.Event) {
			status := "ok"
			if ev.Err != nil {
				status = "FAILED: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s/%s (%.1fs) %s\n",
				ev.Done, ev.Total, ev.Set, ev.Scenario, ev.Elapsed.Seconds(), status)
		}
	}
	if *heartbeat > 0 {
		eng.HeartbeatEvery = *heartbeat
		eng.OnHeartbeat = func(hb engine.Heartbeat) {
			fmt.Fprintf(os.Stderr, "  ... %s: %d/%d scenarios done after %.0fs\n",
				hb.Set, hb.Done, hb.Total, hb.Elapsed.Seconds())
		}
	}

	runOpts := []sim.RunOpt{sim.WithEngine(eng), sim.WithScale(sc), sim.WithSeed(*seed)}
	if *vms > 0 {
		runOpts = append(runOpts, sim.WithVMCounts(*vms))
	}

	failed := false
	// Each experiment dispatches through the registry. The engine delivers
	// partial results alongside the error, so a failure prints whatever
	// completed, marks the process for a non-zero exit, and lets the
	// remaining experiments proceed.
	for _, info := range selected {
		t0 := time.Now()
		fmt.Printf("==> %s\n", info.Title)
		r, err := sim.RunExperiment(ctx, info.Name, runOpts...)
		if r != nil {
			fmt.Print(r.String())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", info.Title, err)
			failed = true
			fmt.Println()
			continue
		}
		for _, note := range info.Notes {
			fmt.Println(note)
		}
		fmt.Printf("    (%.1fs)\n\n", time.Since(t0).Seconds())
	}

	if collector != nil {
		recs := collector.Records()
		if *telemetry != "" {
			if err := writeTelemetry(*telemetry, recs, obs.WriteJSONL); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				failed = true
			}
		}
		if *telemetryCSV != "" {
			if err := writeTelemetry(*telemetryCSV, recs, obs.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				failed = true
			}
		}
	}

	if failed {
		os.Exit(1)
	}
}

func writeTelemetry(path string, recs []obs.RunRecord, write func(w io.Writer, recs []obs.RunRecord) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
