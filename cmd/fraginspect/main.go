// Command fraginspect runs a colocation scenario and dumps the low-level
// memory-layout state the headline metrics summarize: the host-PT
// fragmentation histogram per process, guest buddy-allocator free-list
// shape, and a physical-contiguity map of the primary benchmark's virtual
// space. It exists for studying *why* a configuration fragments.
//
// Counters come from the machine's aggregated observation (Observe) and
// named counter registry (DESIGN.md §8); only layout state that is not a
// counter — free-list shape, per-page contiguity — is read from the
// components directly.
//
// With -vms N (N > 1) the same study runs on a multi-tenant host: the
// primary benchmark boots in vm0 (with the chosen -policy) and each
// co-runner gets its own default-policy pressure VM, so the layout dump
// shows cross-VM interleaving on the shared host instead of same-guest
// colocation.
//
// Usage:
//
//	fraginspect -bench pagerank -corunners stress-ng -policy default [-vms N] [-json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/buddy"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/vm"
)

func main() {
	bench := flag.String("bench", "pagerank", "primary benchmark")
	corunners := flag.String("corunners", "stress-ng", "comma-separated co-runner list")
	policy := flag.String("policy", "default", "allocator policy: default, ptemagnet, capaging, or thp")
	seed := flag.Int64("seed", 11, "simulation seed")
	quick := flag.Bool("quick", true, "use the reduced quick scale")
	vms := flag.Int("vms", 1, "number of VMs: 1 = same-guest colocation; N>1 puts the primary in vm0 and each co-runner in its own pressure VM")
	overcommit := flag.Int("overcommit", 0, "overcommit ratio in percent (e.g. 150): shrink the host so combined guest memory is this fraction of it and arm the balloon controller; 0 = off (requires -vms > 1)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of the text dump")
	flag.Parse()
	if *vms < 1 {
		fatal(fmt.Errorf("-vms must be >= 1, got %d", *vms))
	}
	if *overcommit != 0 && (*overcommit < 100 || *vms < 2) {
		fatal(fmt.Errorf("-overcommit needs a ratio >= 100 and -vms > 1, got %d%% with %d VM(s)", *overcommit, *vms))
	}

	sc := sim.DefaultScale()
	if *quick {
		sc = sim.QuickScale()
	}
	pol, err := guestos.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}

	m, err := buildMachine(sc, pol, *seed, *vms, *overcommit)
	if err != nil {
		fatal(err)
	}
	prog, err := sim.NewBenchmark(*bench, sc, *seed)
	if err != nil {
		fatal(err)
	}
	if _, err := m.Guests()[0].AddTask(prog, vm.RolePrimary); err != nil {
		fatal(err)
	}
	if *corunners != "" {
		for i, name := range strings.Split(*corunners, ",") {
			co, err := sim.NewCorunner(name, sc, *seed+int64(i)+100)
			if err != nil {
				fatal(err)
			}
			// Same guest as the primary when single-VM; otherwise each
			// co-runner rotates through the pressure VMs.
			g := m.Guests()[0]
			if *vms > 1 {
				g = m.Guests()[1+i%(*vms-1)]
			}
			if _, err := g.AddTask(co, vm.RoleCorunner); err != nil {
				fatal(err)
			}
		}
	}
	if err := m.RunWith(context.Background()); err != nil {
		fatal(err)
	}

	rep := m.Observe()
	if *asJSON {
		dumpJSON(m, pol, rep)
		return
	}

	fmt.Printf("policy: %v\n\n", pol)
	for _, task := range m.Tasks() {
		dumpProcess(m, task)
	}
	dumpBuddies(m, rep)
	dumpWalkHistogram(rep)
}

// buildMachine assembles an n-VM host (n = 1 is same-guest colocation):
// the primary's guest (vm0) gets the chosen policy, pressure guests run
// the default allocator, each with its own kernel seed. A nonzero
// overcommit ratio (percent) shrinks the host so the guests' combined
// memory oversubscribes it and arms the balloon controller, making
// ballooned-out frames appear in the layout dump.
func buildMachine(sc sim.Scale, pol guestos.AllocPolicy, seed int64, n, overcommitPct int) (*vm.Machine, error) {
	hc := vm.HostConfig{HostMemBytes: sc.HostMemBytes, Quantum: 2}
	guestMem := func(int) uint64 { return sc.GuestMemBytes }
	if overcommitPct > 0 {
		// Size guests by role (1.5× their footprint), the overcommit
		// sweep's sizing, so the declared ratio reflects what the
		// workloads actually touch and ballooning genuinely engages.
		guestMem = func(i int) uint64 {
			bytes := sc.CorunnerFootprint * 3 / 2
			if i == 0 {
				bytes = sc.DatasetBytes * 3 / 2
			}
			return arch.AlignUp(bytes, arch.PageSize)
		}
		var combined uint64
		for i := 0; i < n; i++ {
			combined += guestMem(i)
		}
		hostMem := combined * 100 / uint64(overcommitPct)
		hc.HostMemBytes = arch.AlignUp(hostMem, arch.PageSize)
		hc.Balloon = balloon.Config{Enabled: true}
	}
	for i := 0; i < n; i++ {
		gp := guestos.PolicyDefault
		if i == 0 {
			gp = pol
		}
		hc.Guests = append(hc.Guests, vm.GuestConfig{
			MemBytes: guestMem(i),
			Policy:   gp,
			Seed:     seed + int64(i)*10,
		})
	}
	return vm.NewHost(hc)
}

// jsonOutput is the -json document: the per-process layout views plus the
// machine's full counter registry in registration order.
type jsonOutput struct {
	Policy    string     `json:"policy"`
	Processes []jsonProc `json:"processes"`
	// Buddy is vm0's (the primary's guest); VMBuddies lists every live
	// guest's allocator on a multi-VM run.
	Buddy     jsonBuddy    `json:"buddy"`
	VMBuddies []jsonBuddy  `json:"vm_buddies,omitempty"`
	Counters  obs.Snapshot `json:"counters"`
}

type jsonProc struct {
	Name           string  `json:"name"`
	VM             int     `json:"vm,omitempty"`
	RSSPages       uint64  `json:"rss_pages"`
	FragMean       float64 `json:"frag_mean"`
	FragGroups     int     `json:"frag_groups"`
	FullyScattered float64 `json:"fully_scattered"`
	Histogram      []int   `json:"histogram"`
}

type jsonBuddy struct {
	VM                int      `json:"vm,omitempty"`
	FreeFrames        uint64   `json:"free_frames"`
	TotalFrames       uint64   `json:"total_frames"`
	LargestFreeOrder  int      `json:"largest_free_order"`
	FreeBlocksByOrder []uint64 `json:"free_blocks_by_order"`
	// BalloonFrames counts guest frames ballooned out to the host (their
	// host backing is dropped); only present on balloon-armed runs.
	BalloonFrames uint64 `json:"balloon_frames,omitempty"`
}

func buddyJSON(b *buddy.Allocator) jsonBuddy {
	counts := b.FreeBlocksByOrder()
	return jsonBuddy{
		FreeFrames:        b.FreeFrames(),
		TotalFrames:       b.NumFrames(),
		LargestFreeOrder:  b.LargestFreeOrder(),
		FreeBlocksByOrder: counts[:],
	}
}

func dumpJSON(m *vm.Machine, pol guestos.AllocPolicy, rep vm.Report) {
	out := jsonOutput{
		Policy:   pol.String(),
		Counters: m.Registry().Snapshot(),
	}
	for _, task := range m.Tasks() {
		proc := task.Process()
		g := m.Guests()[task.GuestIndex()]
		frag := metrics.HostPTFragmentation(proc.PageTable(), g.HostVM().PageTable())
		out.Processes = append(out.Processes, jsonProc{
			Name:           task.Name(),
			VM:             g.Index(),
			RSSPages:       proc.RSS(),
			FragMean:       frag.Mean,
			FragGroups:     frag.Groups,
			FullyScattered: frag.FullyScattered,
			Histogram:      frag.Histogram[:],
		})
	}
	out.Buddy = buddyJSON(m.Guests()[0].Kernel().Memory().Buddy())
	out.Buddy.BalloonFrames = m.Guests()[0].Kernel().BalloonPages()
	if gs := m.Guests(); len(gs) > 1 {
		for _, g := range gs {
			if !g.Alive() {
				continue
			}
			jb := buddyJSON(g.Kernel().Memory().Buddy())
			jb.VM = g.Index()
			jb.BalloonFrames = g.Kernel().BalloonPages()
			out.VMBuddies = append(out.VMBuddies, jb)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

// dumpWalkHistogram prints the per-walk latency distribution — the per-walk
// view of the fragmentation penalty (compare policies to watch the mass
// shift between buckets).
func dumpWalkHistogram(rep vm.Report) {
	s := rep.Whole.Walker
	fmt.Printf("\nnested-walk latency distribution (%d walks, p50 ≤ %d cycles, p99 ≤ %d cycles)\n",
		s.Walks, s.WalkLatencyPercentile(0.5), s.WalkLatencyPercentile(0.99))
	var max uint64
	for _, c := range s.WalkHist {
		if c > max {
			max = c
		}
	}
	for i, c := range s.WalkHist {
		if c == 0 {
			continue
		}
		bar := int(c * 50 / max)
		fmt.Printf("  <%6d cyc  %8d  %s\n", 1<<(i+1), c, strings.Repeat("#", bar))
	}
}

func dumpProcess(m *vm.Machine, task *vm.Task) {
	proc := task.Process()
	g := m.Guests()[task.GuestIndex()]
	rep := metrics.HostPTFragmentation(proc.PageTable(), g.HostVM().PageTable())
	name := task.Name()
	if len(m.Guests()) > 1 {
		name = fmt.Sprintf("vm%d/%s", g.Index(), name)
	}
	fmt.Printf("process %-12s  rss %6d pages  host-PT frag %.2f over %d groups\n",
		name, proc.RSS(), rep.Mean, rep.Groups)
	fmt.Printf("  hPTE-blocks-per-group histogram: ")
	for n, c := range rep.Histogram {
		fmt.Printf("%d:%d ", n+1, c)
	}
	fmt.Println()
	// Physical contiguity map of the first VMA span: one char per page
	// run (C = continues previous page physically, gap digit = log2 of
	// the jump).
	fmt.Printf("  contiguity (first 512 mapped pages): ")
	var prev arch.PhysAddr
	count := 0
	proc.PageTable().ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, _ pagetable.Flags) bool {
		if count >= 512 {
			return false
		}
		if count > 0 {
			if pa == prev+arch.PageSize {
				fmt.Print(".")
			} else {
				fmt.Print("|")
			}
		}
		prev = pa
		count++
		return true
	})
	fmt.Println("\n  ('.' physically adjacent to previous page, '|' discontinuity)")
}

func dumpBuddies(m *vm.Machine, rep vm.Report) {
	if len(m.Guests()) == 1 {
		k := m.Guests()[0].Kernel()
		dumpBuddy("guest", k.Memory().Buddy(), rep.Whole.GuestBuddy, k)
		return
	}
	for _, g := range m.Guests() {
		if !g.Alive() {
			continue
		}
		dumpBuddy(fmt.Sprintf("vm%d guest", g.Index()), g.Kernel().Memory().Buddy(), g.Snapshot().GuestBuddy, g.Kernel())
	}
}

func dumpBuddy(label string, b *buddy.Allocator, s buddy.Stats, k *guestos.Kernel) {
	fmt.Printf("\n%s buddy allocator: %d/%d frames free in %d extents, largest free order %d\n",
		label, b.FreeFrames(), b.NumFrames(), b.FreeExtents(), b.LargestFreeOrder())
	counts := b.FreeBlocksByOrder()
	fmt.Printf("  free blocks by order: ")
	for o, c := range counts {
		if c > 0 {
			fmt.Printf("2^%d:%d ", o, c)
		}
	}
	fmt.Println()
	fmt.Printf("  splits %d  merges %d  failures %d\n", s.Splits, s.Merges, s.Failures)
	// Balloon-armed runs only: frames this guest surrendered to the host.
	if pages := k.BalloonPages(); pages > 0 {
		fmt.Printf("  ballooned out: %d frames (target %d)\n", pages, k.BalloonTarget())
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "fraginspect: %v\n", err)
	os.Exit(1)
}
