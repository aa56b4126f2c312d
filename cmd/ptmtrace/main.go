// Command ptmtrace records and analyzes simulator event traces.
//
//	ptmtrace record -o run.trace -bench pagerank -corunners objdet -policy ptemagnet
//	ptmtrace summarize run.trace
//
// record runs a scenario with the trace collector attached and writes the
// per-access event stream to a file; summarize aggregates a recorded trace
// (TLB behaviour, cycle split, fault mix, hottest pages). Both subcommands
// accept -json for machine-readable output; record's JSON includes the
// machine's full counter registry (DESIGN.md §8) alongside the trace
// metadata.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ptemagnet/internal/guestos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "summarize":
		summarize(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ptmtrace record -o FILE [scenario flags] | ptmtrace summarize [-json] FILE")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("o", "run.trace", "output trace file")
	bench := fs.String("bench", "pagerank", "primary benchmark")
	corunners := fs.String("corunners", "", "comma-separated co-runner list")
	policy := fs.String("policy", "default", "allocator policy: default, ptemagnet, capaging, or thp")
	seed := fs.Int64("seed", 11, "simulation seed")
	quick := fs.Bool("quick", true, "use the reduced quick scale (traces get large fast)")
	asJSON := fs.Bool("json", false, "emit the recording report as JSON (with the counter registry)")
	fs.Parse(args)

	s := sim.Scenario{Benchmark: *bench, Seed: *seed, Scale: sim.DefaultScale()}
	if *quick {
		s.Scale = sim.QuickScale()
	}
	if *corunners != "" {
		s.Corunners = strings.Split(*corunners, ",")
	}
	pol, err := guestos.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	s.Policy = pol

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	tw, err := trace.NewWriter(f)
	if err != nil {
		fatal(err)
	}
	collector := trace.NewCollector(tw)

	m, err := sim.BuildMachine(s)
	if err != nil {
		fatal(err)
	}
	m.SetTracer(collector)
	if err := m.RunWith(context.Background()); err != nil {
		fatal(err)
	}
	if err := collector.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if *asJSON {
		type recordOut struct {
			Trace       string       `json:"trace"`
			Events      uint64       `json:"events"`
			Scenario    string       `json:"scenario"`
			Fingerprint string       `json:"fingerprint"`
			Tasks       []string     `json:"tasks"`
			Counters    obs.Snapshot `json:"counters"`
		}
		rep := recordOut{
			Trace:       *out,
			Events:      tw.Count(),
			Scenario:    s.Identity(),
			Fingerprint: s.Fingerprint(),
			Counters:    m.Registry().Snapshot(),
		}
		for _, task := range m.Tasks() {
			rep.Tasks = append(rep.Tasks, task.Name())
		}
		writeJSON(rep)
		return
	}
	fmt.Printf("recorded %d events to %s\n", tw.Count(), *out)
	for i, task := range m.Tasks() {
		fmt.Printf("  task %d: %s\n", i, task.Name())
	}
}

func summarize(args []string) {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	s, err := trace.Summarize(f, 10)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		writeJSON(s)
		return
	}
	fmt.Printf("events            %d  (%d accesses, %d faults)\n", s.Events, s.Accesses, s.Faults)
	if s.Accesses > 0 {
		fmt.Printf("writes            %d (%.1f%%)\n", s.Writes, 100*float64(s.Writes)/float64(s.Accesses))
		fmt.Printf("TLB hit rate      %.2f%%\n", 100*float64(s.TLBHits)/float64(s.Accesses))
		fmt.Printf("cycles            translation %d, data %d (%.2f translation share)\n",
			s.TranslationCycles, s.DataCycles,
			float64(s.TranslationCycles)/float64(s.TranslationCycles+s.DataCycles))
	}
	var tasks []uint8
	for task := range s.PerTask {
		tasks = append(tasks, task)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	for _, task := range tasks {
		fmt.Printf("task %d accesses   %d\n", task, s.PerTask[task])
	}
	var kinds []uint8
	for k := range s.FaultsByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("faults %-14v %d\n", guestos.FaultKind(k), s.FaultsByKind[k])
	}
	fmt.Println("hottest pages:")
	for _, pc := range s.HotPages {
		fmt.Printf("  %#014x  %d accesses\n", uint64(pc.Page), pc.Count)
	}
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ptmtrace: %v\n", err)
	os.Exit(1)
}
