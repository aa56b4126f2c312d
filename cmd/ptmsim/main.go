// Command ptmsim runs one colocation scenario on the simulated platform and
// prints the full metric set — the single-run workhorse behind the paper
// experiments.
//
// Usage:
//
//	ptmsim -bench pagerank -corunners objdet,stress-ng -policy ptemagnet [flags]
//
// Benchmarks: cc bfs nibble pagerank gcc mcf omnetpp xz allocmicro sparse.
// Co-runners: objdet stress-ng chameleon pyaes json_serdes rnn_serving
// gcc-co xz-co.
//
// -telemetry / -telemetry-csv write the run's RunRecord (full counter
// registry plus wall-clock) to a file; -pprof serves net/http/pprof for
// live profiling.
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

	"ptemagnet/internal/cache"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
)

func main() {
	bench := flag.String("bench", "pagerank", "primary benchmark")
	corunners := flag.String("corunners", "", "comma-separated co-runner list")
	policy := flag.String("policy", "default", "allocator policy: default, ptemagnet, capaging, or thp")
	seed := flag.Int64("seed", 11, "simulation seed")
	quick := flag.Bool("quick", false, "use the reduced quick scale")
	stopAtInit := flag.Bool("stop-corunners-at-init", false, "stop co-runners at the primary's init boundary (§3.3 methodology)")
	watermark := flag.Float64("reclaim-watermark", 0, "reclaim daemon watermark (0 = default 0.95)")
	threshold := flag.Uint64("enable-threshold", 0, "PTEMagnet enable threshold in bytes (0 = always on)")
	telemetry := flag.String("telemetry", "", "write the run's RunRecord as JSON Lines to this file")
	telemetryCSV := flag.String("telemetry-csv", "", "write the run's RunRecord as CSV to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	s := sim.Scenario{
		Benchmark:            *bench,
		Seed:                 *seed,
		StopCorunnersAtInit:  *stopAtInit,
		ReclaimWatermark:     *watermark,
		EnableThresholdBytes: *threshold,
		Scale:                sim.DefaultScale(),
	}
	if *quick {
		s.Scale = sim.QuickScale()
	}
	if *corunners != "" {
		s.Corunners = strings.Split(*corunners, ",")
	}
	pol, err := guestos.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptmsim: %v\n", err)
		os.Exit(2)
	}
	s.Policy = pol

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ptmsim: pprof server: %v\n", err)
			}
		}()
	}

	var collector *obs.Collector
	if *telemetry != "" || *telemetryCSV != "" {
		collector = &obs.Collector{}
		ctx = obs.WithCollector(ctx, collector)
		ctx = engine.WithScenarioInfo(ctx, engine.ScenarioInfo{Set: "ptmsim", Scenario: s.Identity()})
	}

	res, err := sim.RunCtx(ctx, s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptmsim: %v\n", err)
		os.Exit(1)
	}
	printResult(res)

	if collector != nil {
		recs := collector.Records()
		if *telemetry != "" {
			if err := writeFile(*telemetry, recs, obs.WriteJSONL); err != nil {
				fmt.Fprintf(os.Stderr, "ptmsim: %v\n", err)
				os.Exit(1)
			}
		}
		if *telemetryCSV != "" {
			if err := writeFile(*telemetryCSV, recs, obs.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "ptmsim: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

func writeFile(path string, recs []obs.RunRecord, write func(w io.Writer, recs []obs.RunRecord) error) error {
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

func printResult(r sim.Result) {
	t := r.Task
	fmt.Printf("benchmark        %s  (policy %v, co-runners: %s)\n",
		t.Name, r.Scenario.Policy, strings.Join(r.Scenario.Corunners, ","))
	fmt.Printf("accesses         %d total, %d steady\n", t.Accesses, t.SteadyAccesses)
	fmt.Printf("cycles           %d total  (work %d, data %d, translation %d, faults %d)\n",
		t.Cycles, t.WorkCycles, t.DataCycles, t.TranslationCycles, t.FaultCycles)
	fmt.Printf("steady cycles    %d  (translation %d, data %d)\n",
		t.SteadyCycles, t.SteadyTranslationCycles, t.SteadyDataCycles)
	fmt.Printf("CPI (steady)     %.2f cycles/access\n",
		float64(t.SteadyCycles)/float64(max(1, t.SteadyAccesses)))

	w := r.Walk
	fmt.Printf("\ntranslation (steady window)\n")
	fmt.Printf("  TLB            %d lookups, %d misses (%.2f%%)\n",
		w.Lookups, w.TLBMisses(), 100*float64(w.TLBMisses())/float64(max(1, w.Lookups)))
	fmt.Printf("  nested walks   %d  (%d walk cycles, %.0f cycles/walk, p50 ≤ %d, p99 ≤ %d)\n",
		w.Walks, w.WalkCycles, float64(w.WalkCycles)/float64(max(1, w.Walks)),
		w.WalkLatencyPercentile(0.5), w.WalkLatencyPercentile(0.99))
	for _, d := range []nested.Dimension{nested.DimGuest, nested.DimHost} {
		name := "guest PT"
		if d == nested.DimHost {
			name = "host PT"
		}
		fmt.Printf("  %-13s  %d accesses, served L1 %d / L2 %d / LLC %d / memory %d, %d cycles\n",
			name, w.Accesses[d],
			w.Served[d][cache.LevelL1], w.Served[d][cache.LevelL2],
			w.Served[d][cache.LevelLLC], w.Served[d][cache.LevelMemory],
			w.Cycles[d])
	}

	fmt.Printf("\nhost PT fragmentation (§3.2)\n")
	fmt.Printf("  mean           %.2f hPTE blocks per gPTE block over %d groups\n", t.Frag.Mean, t.Frag.Groups)
	fmt.Printf("  fully scattered %.1f%% of groups span all 8 blocks\n", t.Frag.FullyScattered*100)
	fmt.Printf("  histogram      %v (groups spanning 1..8 blocks)\n", t.Frag.Histogram)

	g := r.Guest
	fmt.Printf("\nguest kernel\n")
	fmt.Printf("  faults         default %d, magnet-new %d, magnet-hit %d, ca-hit %d, parent-claim %d, cow %d\n",
		g.Faults[guestos.FaultDefault], g.Faults[guestos.FaultMagnetNew],
		g.Faults[guestos.FaultMagnetHit], g.Faults[guestos.FaultCAHit],
		g.Faults[guestos.FaultParentClaim], g.Faults[guestos.FaultCOW])
	fmt.Printf("  buddy calls    %d   reclaim runs %d (reservations destroyed %d)\n",
		g.BuddyCalls, g.ReclaimRuns, g.ReclaimedReservations)
	if r.Scenario.Policy == guestos.PolicyPTEMagnet {
		fmt.Printf("  reservations   created %d, fully mapped %d, fully freed %d, reclaimed %d, hits %d\n",
			r.MagnetStats.Created, r.MagnetStats.FullyMapped,
			r.MagnetStats.FullyFreed, r.MagnetStats.Reclaimed, r.MagnetStats.Hits)
		fmt.Printf("  unused pages   peak %d, mean %.1f (footprint %d pages)\n",
			r.UnusedMax, r.UnusedMean, r.FootprintPages)
	}
}
