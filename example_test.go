package ptemagnet_test

import (
	"context"
	"fmt"
	"log"

	"ptemagnet"
)

// The README quickstart snippets. They carry no Output line, so go test
// compiles them (keeping the README honest) without running them.

func ExampleRunScenarioPairCtx() {
	ctx := context.Background()
	stock, magnet, err := ptemagnet.RunScenarioPairCtx(ctx, ptemagnet.Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"objdet"},
		Scale:     ptemagnet.DefaultScale(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speedup %+.1f%%, fragmentation %.2f → %.2f\n",
		magnet.Speedup(stock), stock.Task.Frag.Mean, magnet.Task.Frag.Mean)
}

func ExampleRunExperiment() {
	ctx := context.Background()
	r, err := ptemagnet.RunExperiment(ctx, "table1", ptemagnet.WithScale(ptemagnet.QuickScale()))
	if err != nil {
		log.Fatal(err)
	}
	t1 := r.(ptemagnet.Table1Result)
	fmt.Printf("colocation raises host-PT fragmentation %.1f → %.1f\n",
		t1.Isolation.Task.Frag.Mean, t1.Colocated.Task.Frag.Mean)
}
