// Quickstart: run one big-memory benchmark (pagerank) colocated with a
// noisy neighbour (MLPerf-style objdet) inside a simulated VM, once under
// the stock Linux allocator and once under PTEMagnet, and print the
// headline comparison — the paper's core result in ~30 lines of API use.
package main

import (
	"context"
	"fmt"
	"log"

	"ptemagnet"
)

func main() {
	scenario := ptemagnet.Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"objdet"},
		Scale:     ptemagnet.QuickScale(), // switch to DefaultScale() for paper-scale runs
		Seed:      1,
	}

	stock, magnet, err := ptemagnet.RunScenarioPairCtx(context.Background(), scenario)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pagerank colocated with objdet in one VM")
	fmt.Printf("%-26s  %14s  %14s\n", "", "default kernel", "PTEMagnet")
	fmt.Printf("%-26s  %14d  %14d\n", "execution cycles (steady)",
		stock.Task.SteadyCycles, magnet.Task.SteadyCycles)
	fmt.Printf("%-26s  %14.2f  %14.2f\n", "host-PT fragmentation",
		stock.Task.Frag.Mean, magnet.Task.Frag.Mean)
	fmt.Printf("%-26s  %14d  %14d\n", "page-walk cycles",
		stock.Walk.WalkCycles, magnet.Walk.WalkCycles)
	fmt.Printf("%-26s  %14d  %14d\n", "hPT accesses from memory",
		stock.Walk.MemServed(1), magnet.Walk.MemServed(1))
	fmt.Printf("\nPTEMagnet speedup: %+.1f%%  (paper: ~4%% average, up to 9%%)\n",
		magnet.Speedup(stock))
}
