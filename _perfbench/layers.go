package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/buddy"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/core"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/tlb"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// The traced run's host-time attribution. Each representative scenario is
// run three times: once untraced (sim.BuildMachine, RunWith and Observe
// timed, counters read), once with a vm.Tracer capturing its access and
// fault stream (RunWith timed again: trace.overhead_frac), and once only
// built, as the fresh state the fault-path replays start from. The captured stream is then replayed into each hot
// layer's public entry points; ns/op × the timed run's op count is that
// layer's share of RunWith, and vm's residual is what the shares leave.
// Every replay prints its op count and hit ratios beside the timed run's
// counters, so a ns/op is never quoted for an input mix that differs
// unseen from the run's.

var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// clockCost is the cost of one nanotime call, subtracted once per timed
// interval where intervals are short.
func clockCost() float64 {
	const n = 200000
	start := nanotime()
	for i := 0; i < n; i++ {
		nanotime()
	}
	return float64(nanotime()-start) / n
}

type tally struct{ ns, ops float64 }

func (t *tally) add(ns, ops float64) {
	if ns < 0 {
		ns = 0
	}
	t.ns += ns
	t.ops += ops
}

func (t tally) per() float64 { return ratio(t.ns, t.ops) }

// layerTimes accumulates per-layer host time over a workload's reps.
type layerTimes struct {
	build, observe                                            tally // ms per machine
	step, tlbLookup, tlbInsert, fast, walk, cacheAccess, ptXl tally
	faultDefault, faultMagnet, free, coreFault                tally
	buddyAlloc, buddyFree, hostFault, balloonCheck            tally
	// share is the ns attributed to each layer; runNs and accesses are
	// the reps' RunWith time and simulated accesses; tracedNs is the
	// same runs' RunWith time with the capturing tracer installed.
	share                     map[string]float64
	runNs, residual, tracedNs float64
	accesses                  float64
}

// shareLayers is the order shares are printed and reported in.
var shareLayers = []string{"workload", "tlb", "nested", "cache", "guestos", "core", "buddy", "hostos"}

func measureLayers(w benchWorkload, out io.Writer) (*layerTimes, error) {
	lt := &layerTimes{share: map[string]float64{}}
	clock := clockCost()
	for _, r := range w.reps {
		if err := measureRep(r, lt, clock, out); err != nil {
			return nil, fmt.Errorf("rep %s: %w", r.name, err)
		}
	}
	fmt.Fprintf(out, "  layer shares of RunWith over %d reps:", len(w.reps))
	for _, l := range shareLayers {
		fmt.Fprintf(out, " %s %.3f", l, ratio(lt.share[l], lt.runNs))
	}
	fmt.Fprintf(out, " residual %.3f\n", ratio(lt.residual, lt.runNs))
	return lt, nil
}

// capture is a vm.Tracer keeping the stream compactly.
type capture struct {
	accs   []capAccess
	faults []capFault
}

type capAccess struct {
	va    arch.VirtAddr
	task  uint16
	write bool
}

type capFault struct {
	va   arch.VirtAddr
	seq  uint64
	task uint16
	kind uint8
}

func (c *capture) AccessBatch(recs []vm.AccessRecord) {
	for _, r := range recs {
		c.accs = append(c.accs, capAccess{va: r.VA, task: uint16(r.Task), write: r.Write})
	}
}

func (c *capture) Fault(task int, va arch.VirtAddr, kind uint8, seq uint64) {
	c.faults = append(c.faults, capFault{va: va, seq: seq, task: uint16(task), kind: kind})
}

// topo maps a machine's task indices (as the tracer reports them) to the
// process, vCPU and guest the machine runs them on.
type topo struct {
	tasks []*vm.Task
	asid  []uint32
	cpu   []int
	guest []*vm.Guest
}

func topology(m *vm.Machine) topo {
	tasks := m.Tasks()
	t := topo{tasks: tasks, asid: make([]uint32, len(tasks)), cpu: make([]int, len(tasks)), guest: make([]*vm.Guest, len(tasks))}
	index := map[*vm.Task]int{}
	for i, task := range tasks {
		index[task] = i
		t.asid[i] = task.Process().ASID()
	}
	ncpu := m.HostConfig().NumCPUs
	for _, g := range m.Guests() {
		for j, task := range g.Tasks() {
			// vm.Guest.AddTask pins a guest's j-th task to this vCPU.
			t.cpu[index[task]] = (g.Index() + j) % ncpu
			t.guest[index[task]] = g
		}
	}
	return t
}

// runCounters is what the timed run measured, for shares and fidelity.
type runCounters struct {
	c          map[string]uint64
	accesses   float64
	runNs      float64
	dataServed [cache.NumLevels]uint64
	primary    uint64
}

func (rc runCounters) f(name string) float64 { return float64(rc.c[name]) }

func (rc runCounters) sum(prefix string) float64 {
	var s uint64
	for k, v := range rc.c {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return float64(s)
}

func measureRep(r rep, lt *layerTimes, clock float64, out io.Writer) error {
	ctx := context.Background()

	// 1. The timed run.
	t0 := time.Now()
	m, err := r.build()
	if err != nil {
		return err
	}
	lt.build.add(float64(time.Since(t0).Nanoseconds())/1e6, 1)
	t0 = time.Now()
	if err := m.RunWith(ctx, r.opts...); err != nil {
		return err
	}
	run := time.Since(t0)
	t0 = time.Now()
	m.Observe()
	lt.observe.add(float64(time.Since(t0).Nanoseconds())/1e6, 1)
	rc := runCounters{c: map[string]uint64{}, accesses: float64(m.TotalAccesses()), runNs: float64(run.Nanoseconds())}
	addCounters(rc.c, m.Registry().Snapshot())
	for _, t := range m.Tasks() {
		for i, n := range t.DataServed {
			rc.dataServed[i] += n
		}
	}
	rc.primary = m.Tasks()[0].Accesses
	m = nil

	// 2. The same run, captured.
	mt, err := r.build()
	if err != nil {
		return err
	}
	capt := &capture{}
	mt.SetTracer(capt)
	t0 = time.Now()
	if err := mt.RunWith(ctx, r.opts...); err != nil {
		return err
	}
	lt.tracedNs += float64(time.Since(t0).Nanoseconds())
	mt.SetTracer(nil)

	fmt.Fprintf(out, "  rep %s: RunWith %.1fms, %d accesses, %d faults captured\n", r.name, rc.runNs/1e6, uint64(rc.accesses), len(capt.faults))
	fmt.Fprintf(out, "    %-9s %-14s %14s %14s\n", "layer", "quantity", "replay", "run")
	var local layerTimes
	if err := replayStep(r, &local, rc, out); err != nil {
		return err
	}
	tp := topology(mt)
	replayTLB(capt, tp, mt.HostConfig().Walker.TLB, clock, &local, rc, out)
	if err := replayNested(capt, tp, clock, &local, rc, out); err != nil {
		fmt.Fprintf(out, "    nested replay stopped: %v\n", err)
	}
	replayCache(capt, tp, mt.Hierarchy().Config(), &local, rc, out)
	if b := mt.Balloon(); b != nil {
		replayBalloon(b, &local, rc, out)
	}
	mt = nil

	// 3. A fresh copy for the fault-path replays.
	mf, err := r.build()
	if err != nil {
		return err
	}
	if err := replayFaults(capt, mf, clock, &local, rc, out); err != nil {
		fmt.Fprintf(out, "    fault replay stopped: %v\n", err)
	}

	// Shares: ns/op from this rep's replays × this rep's op counts.
	sh := map[string]float64{}
	tlbMiss := rc.f("tlb.lookups") - rc.f("tlb.l1_hits") - rc.f("tlb.l2_hits")
	sh["workload"] = local.step.per() * rc.accesses
	sh["tlb"] = local.tlbLookup.per()*rc.f("tlb.lookups") + local.tlbInsert.per()*tlbMiss
	// TranslateFast/Slow include the TLB probe and fill: nested is self time.
	sh["nested"] = nonneg(local.fast.per()*rc.f("walker.lookups") + local.walk.per()*rc.f("walker.walks") - sh["tlb"])
	sh["cache"] = local.cacheAccess.per() * rc.accesses
	faults := rc.sum("guest.faults.")
	magnet := rc.f("guest.faults.magnet-new") + rc.f("guest.faults.magnet-hit")
	var faultAll tally
	faultAll.add(local.faultDefault.ns+local.faultMagnet.ns, local.faultDefault.ops+local.faultMagnet.ops)
	sh["core"] = local.coreFault.per() * magnet
	sh["buddy"] = local.buddyAlloc.per() * rc.f("guest.buddy_calls")
	// HandlePageFault includes its PaRT and buddy calls: guestos is self time.
	sh["guestos"] = nonneg(faultAll.per()*faults - sh["core"] - sh["buddy"])
	sh["hostos"] = local.hostFault.per() * rc.f("walker.host_faults")
	residual := rc.runNs
	fmt.Fprintf(out, "    shares of RunWith:")
	for _, l := range shareLayers {
		residual -= sh[l]
		lt.share[l] += sh[l]
		fmt.Fprintf(out, " %s %.3f", l, sh[l]/rc.runNs)
	}
	fmt.Fprintf(out, " residual %.3f\n", residual/rc.runNs)
	lt.residual += residual
	lt.runNs += rc.runNs
	lt.accesses += rc.accesses
	lt.merge(&local)
	return nil
}

func (lt *layerTimes) merge(o *layerTimes) {
	for _, p := range [][2]*tally{
		{&lt.step, &o.step}, {&lt.tlbLookup, &o.tlbLookup}, {&lt.tlbInsert, &o.tlbInsert},
		{&lt.fast, &o.fast}, {&lt.walk, &o.walk}, {&lt.cacheAccess, &o.cacheAccess}, {&lt.ptXl, &o.ptXl},
		{&lt.faultDefault, &o.faultDefault}, {&lt.faultMagnet, &o.faultMagnet}, {&lt.free, &o.free},
		{&lt.coreFault, &o.coreFault}, {&lt.buddyAlloc, &o.buddyAlloc}, {&lt.buddyFree, &o.buddyFree},
		{&lt.hostFault, &o.hostFault}, {&lt.balloonCheck, &o.balloonCheck},
	} {
		p[0].add(p[1].ns, p[1].ops)
	}
}

func nonneg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// fidelity prints one replay quantity beside the run's, marking it when
// they differ: by more than 0.05 for a ratio, by more than 10% for a count
// (any count against a run count of zero).
func fidelity(out io.Writer, layer, what string, replay, run float64, isRatio bool) {
	differs := false
	switch {
	case isRatio:
		differs = replay-run > 0.05 || run-replay > 0.05
	case run == 0:
		differs = replay != 0
	default:
		d := (replay - run) / run
		differs = d > 0.10 || d < -0.10
	}
	mark := ""
	if differs {
		mark = "  <- mix differs"
	}
	fmt.Fprintf(out, "    %-9s %-14s %14.4g %14.4g%s\n", layer, what, replay, run, mark)
}

// stubEnv backs a program's regions with bare address ranges, so its
// access generator runs alone.
type stubEnv struct{ next arch.VirtAddr }

func (e *stubEnv) Mmap(bytes uint64) (arch.VirtAddr, error) {
	va := e.next
	e.next += arch.VirtAddr((bytes + 2<<20 - 1) &^ (2<<20 - 1))
	return va, nil
}

func (e *stubEnv) Free(arch.VirtAddr, uint64) error { return nil }

// replayStep drains a fresh copy of the primary program through StepBatch.
func replayStep(r rep, lt *layerTimes, rc runCounters, out io.Writer) error {
	prog, err := r.primary()
	if err != nil {
		return err
	}
	env := &stubEnv{next: 1 << 30}
	if err := prog.Setup(env); err != nil {
		return err
	}
	bp := workload.AsBatch(prog)
	buf := make([]workload.Access, 256)
	var n uint64
	start := nanotime()
	for {
		k, done := bp.StepBatch(env, buf)
		n += uint64(k)
		if done || k == 0 {
			break
		}
	}
	lt.step.add(float64(nanotime()-start), float64(n))
	fidelity(out, "workload", "accesses", float64(n), float64(rc.primary), false)
	return nil
}

// replayTLB replays the access stream into fresh two-level TLBs (one per
// guest, as the machine has), filling on every miss as the walker does.
func replayTLB(c *capture, tp topo, cfg tlb.TwoLevelConfig, clock float64, lt *layerTimes, rc runCounters, out io.Writer) {
	perGuest := map[*vm.Guest]*tlb.TwoLevel{}
	tlbs := make([]*tlb.TwoLevel, len(tp.tasks))
	for i, g := range tp.guest {
		if perGuest[g] == nil {
			perGuest[g] = tlb.NewTwoLevel(cfg)
		}
		tlbs[i] = perGuest[g]
	}
	// An access that faulted probed the TLB again after the fault was
	// handled, before the fill.
	faulted := make([]bool, len(c.accs))
	for _, f := range c.faults {
		if f.seq >= 1 && f.seq <= uint64(len(c.accs)) {
			faulted[f.seq-1] = true
		}
	}
	var lookNs, insNs int64
	var inserts float64
	t0 := nanotime()
	for i, a := range c.accs {
		tl, asid := tlbs[a.task], tp.asid[a.task]
		vpn := uint64(a.va) >> arch.PageShift
		if _, hit := tl.Lookup(asid, vpn); !hit {
			if faulted[i] {
				tl.Lookup(asid, vpn)
			}
			t1 := nanotime()
			lookNs += t1 - t0
			tl.Insert(asid, vpn, arch.PhysAddr(vpn<<arch.PageShift))
			t0 = nanotime()
			insNs += t0 - t1
			inserts++
		}
	}
	lookNs += nanotime() - t0
	var s tlb.TwoLevelStats
	for _, tl := range perGuest {
		st := tl.Snapshot()
		s.Lookups += st.Lookups
		s.L1Hits += st.L1Hits
		s.L2Hits += st.L2Hits
	}
	lt.tlbLookup.add(float64(lookNs)-inserts*clock, float64(s.Lookups))
	lt.tlbInsert.add(float64(insNs)-inserts*clock, inserts)
	fidelity(out, "tlb", "lookups", float64(s.Lookups), rc.f("tlb.lookups"), false)
	fidelity(out, "tlb", "l1_hit_ratio", ratio(float64(s.L1Hits), float64(s.Lookups)), ratio(rc.f("tlb.l1_hits"), rc.f("tlb.lookups")), true)
	fidelity(out, "tlb", "l2_hit_ratio", ratio(float64(s.L2Hits), float64(s.Lookups-s.L1Hits)),
		ratio(rc.f("tlb.l2_hits"), rc.f("tlb.lookups")-rc.f("tlb.l1_hits")), true)
}

// replayNested replays the stream through each guest's walker on the
// captured run's final state, with TLBs and walk caches flushed first:
// TranslateFast per access, TranslateSlow on every miss.
func replayNested(c *capture, tp topo, clock float64, lt *layerTimes, rc runCounters, out io.Writer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("walker panicked: %v", p)
		}
	}()
	walkers := make([]*nested.Walker, len(tp.tasks))
	gpts := make([]*pagetable.Table, len(tp.tasks))
	before := map[*nested.Walker]nested.Stats{}
	for i, g := range tp.guest {
		walkers[i] = g.Walker()
		gpts[i] = tp.tasks[i].Process().PageTable()
		if _, ok := before[walkers[i]]; !ok {
			walkers[i].InvalidateAll()
			before[walkers[i]] = walkers[i].Snapshot()
		}
	}
	// A faulting access walked twice in the run: once up to the missing
	// entry, then again, over just-touched nodes, after the fault. The
	// replay walks it twice too, the second time warm.
	faulted := make([]bool, len(c.accs))
	for _, f := range c.faults {
		if f.seq >= 1 && f.seq <= uint64(len(c.accs)) {
			faulted[f.seq-1] = true
		}
	}
	var fastNs, walkNs int64
	var misses, walks, unresolved float64
	t0 := nanotime()
	for i, a := range c.accs {
		w, asid := walkers[a.task], tp.asid[a.task]
		if _, hit := w.TranslateFast(asid, a.va, a.write); !hit {
			misses++
			t1 := nanotime()
			fastNs += t1 - t0
			outc := w.TranslateSlow(tp.cpu[a.task], asid, gpts[a.task], a.va, a.write)
			walks++
			if faulted[i] {
				w.TranslateSlow(tp.cpu[a.task], asid, gpts[a.task], a.va, a.write)
				walks++
			}
			t0 = nanotime()
			walkNs += t0 - t1
			if !outc.Ok {
				unresolved++
			}
		}
	}
	fastNs += nanotime() - t0
	lt.fast.add(float64(fastNs)-misses*clock, float64(len(c.accs)))
	lt.walk.add(float64(walkNs)-misses*clock, walks)
	var lookups, walksDone, refs, pwc float64
	for w, b := range before {
		d := w.Snapshot().Delta(b)
		lookups += float64(d.Lookups)
		walksDone += float64(d.Walks)
		for dim := range d.Accesses {
			refs += float64(d.Accesses[dim])
			pwc += float64(d.PWCHits[dim])
		}
	}
	runRefs := rc.f("walker.guest.accesses") + rc.f("walker.host.accesses")
	runPWC := rc.f("walker.guest.pwc_hits") + rc.f("walker.host.pwc_hits")
	fidelity(out, "nested", "walks", walksDone, rc.f("walker.walks"), false)
	fidelity(out, "nested", "lookups", lookups, rc.f("walker.lookups"), false)
	fidelity(out, "nested", "refs/walk", ratio(refs, walksDone), ratio(runRefs, rc.f("walker.walks")), false)
	fidelity(out, "nested", "pwc_hit_ratio", ratio(pwc, pwc+refs), ratio(runPWC, runPWC+runRefs), true)
	if unresolved > 0 {
		fmt.Fprintf(out, "    %-9s %.0f walks ended in a guest fault (pages freed before the run ended)\n", "nested", unresolved)
	}
	return nil
}

// replayCache translates the stream to host-physical addresses through
// the captured run's final page tables (timing pagetable.Translate), then
// replays the data references into a fresh hierarchy of the same shape.
func replayCache(c *capture, tp topo, cfg cache.Config, lt *layerTimes, rc runCounters, out io.Writer) {
	gpts := make([]*pagetable.Table, len(tp.tasks))
	hosts := make([]*hostos.VM, len(tp.tasks))
	for i, g := range tp.guest {
		gpts[i] = tp.tasks[i].Process().PageTable()
		hosts[i] = g.HostVM()
	}
	gpas := make([]arch.PhysAddr, len(c.accs))
	mapped := make([]bool, len(c.accs))
	start := nanotime()
	for i, a := range c.accs {
		gpas[i], _, mapped[i] = gpts[a.task].Translate(a.va)
	}
	lt.ptXl.add(float64(nanotime()-start), float64(len(c.accs)))
	type ref struct {
		cpu int
		hpa arch.PhysAddr
	}
	refs := make([]ref, 0, len(c.accs))
	for i, a := range c.accs {
		if !mapped[i] {
			continue
		}
		if hpa, ok := hosts[a.task].Translate(gpas[i]); ok {
			refs = append(refs, ref{cpu: tp.cpu[a.task], hpa: hpa})
		}
	}
	h := cache.NewHierarchy(cfg)
	start = nanotime()
	for _, r := range refs {
		h.Access(r.cpu, r.hpa)
	}
	lt.cacheAccess.add(float64(nanotime()-start), float64(len(refs)))
	hits := h.Snapshot().Hits
	var total, runTotal float64
	for i := range hits {
		total += float64(hits[i])
		runTotal += float64(rc.dataServed[i])
	}
	fidelity(out, "cache", "data refs", total, runTotal, false)
	fidelity(out, "cache", "l1_hit_ratio", ratio(float64(hits[cache.LevelL1]), total), ratio(float64(rc.dataServed[cache.LevelL1]), runTotal), true)
	fidelity(out, "cache", "memory_ratio", ratio(float64(hits[cache.LevelMemory]), total), ratio(float64(rc.dataServed[cache.LevelMemory]), runTotal), true)
}

type faultedPage struct {
	task int
	va   arch.VirtAddr
	gpa  arch.PhysAddr
	kind guestos.FaultKind
}

// replayBalloon times Controller.Check on the captured run's final state,
// as many calls as the run made. Check acts on some calls (relief below
// the low watermark, deflation above the high one) and is idle on the
// rest; the share of acting calls is printed beside the run's, so
// check_ns is marked whenever the replay's mix is not the run's.
func replayBalloon(b *balloon.Controller, lt *layerTimes, rc runCounters, out io.Writer) {
	n := rc.f("balloon.samples")
	if n == 0 {
		return
	}
	before := b.Snapshot()
	start := nanotime()
	for i := 0.0; i < n; i++ {
		b.Check()
	}
	lt.balloonCheck.add(float64(nanotime()-start), n)
	d := b.Snapshot().Delta(before)
	fidelity(out, "balloon", "checks", n, rc.f("balloon.samples"), false)
	fidelity(out, "balloon", "acting share", float64(d.WatermarkHits+d.Deflations)/n,
		(rc.f("balloon.watermark_hits")+rc.f("balloon.deflations"))/n, true)
}

// buddyFrees sums the free calls of every guest's buddy allocator.
func buddyFrees(guests []*vm.Guest) float64 {
	var n uint64
	for _, g := range guests {
		for _, c := range g.Kernel().Memory().Buddy().Snapshot().FreeCalls {
			n += c
		}
	}
	return float64(n)
}

// replayFaults replays the captured guest faults in order on a fresh
// machine (guestos.HandlePageFault), then feeds the same stream to a
// standalone PaRT (core), buddy allocator (buddy) and host VM (hostos),
// and finally frees the faulted pages (guestos.Free) one page a call.
// The tracer stream holds no frees, so the run's own Free calls (region
// frees, churn, reclaim) cannot be replayed: the free rows compare the
// buddy frees each side caused, and a note says the mix is per page.
func replayFaults(c *capture, mf *vm.Machine, clock float64, lt *layerTimes, rc runCounters, out io.Writer) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	tp := topology(mf)
	var pages []faultedPage
	var kinds [guestos.NumFaultKinds]float64
	var matched, failed float64
	for _, f := range c.faults {
		proc := tp.tasks[f.task].Process()
		write := f.seq >= 1 && f.seq <= uint64(len(c.accs)) && c.accs[f.seq-1].write
		start := nanotime()
		kind, ferr := proc.HandlePageFault(f.va, write)
		d := float64(nanotime()-start) - clock
		if ferr != nil {
			failed++
			continue
		}
		if tp.guest[f.task].Config().Policy == guestos.PolicyPTEMagnet {
			lt.faultMagnet.add(d, 1)
		} else {
			lt.faultDefault.add(d, 1)
		}
		kinds[kind]++
		if uint8(kind) == f.kind {
			matched++
		}
		if kind != guestos.FaultAlreadyMapped {
			if gpa, ok := proc.Translate(f.va); ok {
				pages = append(pages, faultedPage{task: int(f.task), va: f.va.PageBase(), gpa: gpa, kind: kind})
			}
		}
	}
	replayed := float64(len(c.faults)) - failed
	fidelity(out, "guestos", "faults", replayed, rc.sum("guest.faults."), false)
	fidelity(out, "guestos", "kind match", ratio(matched, replayed), 1, true)

	replayPaRT(c, tp, lt, rc, out)
	replayBuddy(pages, tp, lt, rc, out)

	hk := hostos.NewKernel(mf.HostConfig().HostMemBytes)
	vms := map[*vm.Guest]*hostos.VM{}
	var hostFaults float64
	for _, p := range pages {
		g := tp.guest[p.task]
		if vms[g] == nil {
			v, err := hk.CreateVM(g.Config().MemBytes)
			if err != nil {
				return err
			}
			vms[g] = v
		}
		v := vms[g]
		if v.Mapped(p.gpa) {
			continue
		}
		start := nanotime()
		herr := v.HandleFault(p.gpa)
		d := float64(nanotime()-start) - clock
		if herr != nil {
			break // host memory exhausted: the overcommitted hosts' balloon is not replayed
		}
		lt.hostFault.add(d, 1)
		hostFaults++
	}
	fidelity(out, "hostos", "faults", hostFaults, rc.f("walker.host_faults"), false)

	var freed float64
	buddyBefore := buddyFrees(mf.Guests())
	for _, p := range pages {
		start := nanotime()
		ferr := tp.tasks[p.task].Process().Free(p.va, arch.PageSize)
		d := float64(nanotime()-start) - clock
		if ferr == nil {
			lt.free.add(d, 1)
			freed++
		}
	}
	fidelity(out, "guestos", "buddy frees", buddyFrees(mf.Guests())-buddyBefore, rc.sum("buddy.guest.free_calls["), false)
	fmt.Fprintf(out, "    %-9s %.0f single-page Free calls replayed; the run's Free calls are not traced, so free_ns is per page freed alone\n", "guestos", freed)
	return nil
}

// replayPaRT replays the PTEMagnet faults of the run (first touch of each
// page) into one standalone PaRT per task, with a bump group allocator.
func replayPaRT(c *capture, tp topo, lt *layerTimes, rc runCounters, out io.Writer) {
	type op struct {
		part *core.PaRT
		va   arch.VirtAddr
	}
	parts := make([]*core.PaRT, len(tp.tasks))
	seen := map[[2]uint64]bool{}
	var ops []op
	for _, f := range c.faults {
		k := guestos.FaultKind(f.kind)
		if k != guestos.FaultMagnetNew && k != guestos.FaultMagnetHit {
			continue
		}
		key := [2]uint64{uint64(f.task), uint64(f.va.PageBase())}
		if seen[key] {
			continue
		}
		seen[key] = true
		if parts[f.task] == nil {
			cfg := tp.guest[f.task].Config().Magnet
			if cfg.GroupPages == 0 {
				cfg = core.DefaultConfig()
			}
			parts[f.task] = core.MustNew(cfg)
		}
		ops = append(ops, op{part: parts[f.task], va: f.va})
	}
	if len(ops) == 0 {
		return
	}
	var next arch.PhysAddr
	alloc := func() (arch.PhysAddr, bool) {
		pa := next
		next += arch.PhysAddr(ops[0].part.GroupBytes())
		return pa, true
	}
	var hits float64
	start := nanotime()
	for _, o := range ops {
		if _, res := o.part.HandleFault(o.va, alloc); res == core.FaultReservationHit {
			hits++
		}
	}
	lt.coreFault.add(float64(nanotime()-start), float64(len(ops)))
	runHit, runNew := rc.f("guest.faults.magnet-hit"), rc.f("guest.faults.magnet-new")
	fidelity(out, "core", "faults", float64(len(ops)), runHit+runNew, false)
	fidelity(out, "core", "hit_ratio", ratio(hits, float64(len(ops))), ratio(runHit, runHit+runNew), true)
}

// replayBuddy replays the replayed faults' allocations (one page per
// default fault, one group per new reservation) into a standalone buddy
// allocator of the largest guest's size, then frees them.
func replayBuddy(pages []faultedPage, tp topo, lt *layerTimes, rc runCounters, out io.Writer) {
	var frames uint64
	for _, g := range tp.guest {
		if n := g.Config().MemBytes >> arch.PageShift; n > frames {
			frames = n
		}
	}
	groupOrder := 0
	for 1<<groupOrder < core.DefaultConfig().GroupPages {
		groupOrder++
	}
	var orders []int
	for _, p := range pages {
		switch p.kind {
		case guestos.FaultDefault:
			orders = append(orders, 0)
		case guestos.FaultMagnetNew:
			orders = append(orders, groupOrder)
		}
	}
	if len(orders) == 0 || frames == 0 {
		return
	}
	b := buddy.New(frames)
	got := make([]uint64, 0, len(orders))
	start := nanotime()
	for _, o := range orders {
		f, ok := b.AllocOrder(o)
		if !ok {
			break
		}
		got = append(got, f)
	}
	lt.buddyAlloc.add(float64(nanotime()-start), float64(len(got)))
	st := b.Snapshot()
	start = nanotime()
	for _, f := range got {
		b.Free(f)
	}
	lt.buddyFree.add(float64(nanotime()-start), float64(len(got)))
	merges := float64(b.Snapshot().Merges - st.Merges)
	runAllocs := rc.sum("buddy.guest.alloc_calls[")
	runFrees := rc.sum("buddy.guest.free_calls[")
	fidelity(out, "buddy", "allocs", float64(len(got)), rc.f("guest.buddy_calls"), false)
	fidelity(out, "buddy", "splits/alloc", ratio(float64(st.Splits), float64(len(got))), ratio(rc.f("buddy.guest.splits"), runAllocs), false)
	fidelity(out, "buddy", "frees", float64(len(got)), runFrees, false)
	fidelity(out, "buddy", "merges/free", ratio(merges, float64(len(got))), ratio(rc.f("buddy.guest.merges"), runFrees), false)
}

// perLayerMetrics fills res with every per-layer metric: counts and
// ratios from the traced pass's RunRecords, engine figures from its
// scenario events, host time from the reps' runs and replays.
func perLayerMetrics(res *result, traced passStats, lt *layerTimes, workers int) {
	c := runCounters{c: traced.counters}
	acc := c.f("machine.accesses")
	faults := c.sum("guest.faults.")
	magnet := c.f("guest.faults.magnet-hit") + c.f("guest.faults.magnet-new")
	walkRefs := c.f("walker.guest.accesses") + c.f("walker.host.accesses")
	pwc := c.f("walker.guest.pwc_hits") + c.f("walker.host.pwc_hits")
	served := c.sum("cache.served.")
	maxMS := 0.0
	for _, ms := range traced.scenarioMS {
		if ms > maxMS {
			maxMS = ms
		}
	}
	share := func(l string) float64 { return ratio(lt.share[l], lt.runNs) }
	v := map[string]float64{
		"engine.busy_frac":               ratio(traced.scenarioSum.Seconds(), float64(workers)*traced.wall.Seconds()),
		"engine.scenario_ms.p50":         median(traced.scenarioMS),
		"engine.scenario_ms.max":         maxMS,
		"sim.build_ms":                   lt.build.per(),
		"sim.observe_ms":                 lt.observe.per(),
		"vm.run_ns_per_access":           ratio(lt.runNs, lt.accesses),
		"vm.residual_ns_per_access":      ratio(lt.residual, lt.accesses),
		"workload.step_ns_per_access":    lt.step.per(),
		"workload.share":                 share("workload"),
		"tlb.lookups_per_access":         ratio(c.f("tlb.lookups"), acc),
		"tlb.l1_hit_ratio":               ratio(c.f("tlb.l1_hits"), c.f("tlb.lookups")),
		"tlb.l2_hit_ratio":               ratio(c.f("tlb.l2_hits"), c.f("tlb.lookups")-c.f("tlb.l1_hits")),
		"tlb.lookup_ns":                  lt.tlbLookup.per(),
		"tlb.insert_ns":                  lt.tlbInsert.per(),
		"tlb.share":                      share("tlb"),
		"nested.walks_per_access":        ratio(c.f("walker.walks"), acc),
		"nested.refs_per_walk":           ratio(walkRefs, c.f("walker.walks")),
		"nested.pwc_hit_ratio":           ratio(pwc, pwc+walkRefs),
		"nested.fast_ns":                 lt.fast.per(),
		"nested.walk_ns":                 lt.walk.per(),
		"nested.share":                   share("nested"),
		"cache.refs_per_access":          ratio(served, acc),
		"cache.l1_hit_ratio":             ratio(c.f("cache.served.l1"), served),
		"cache.memory_ratio":             ratio(c.f("cache.served.memory"), served),
		"cache.access_ns":                lt.cacheAccess.per(),
		"cache.share":                    share("cache"),
		"pagetable.translate_ns":         lt.ptXl.per(),
		"guestos.faults_per_kaccess":     ratio(faults*1000, acc),
		"guestos.fault_ns.default":       lt.faultDefault.per(),
		"guestos.fault_ns.ptemagnet":     lt.faultMagnet.per(),
		"guestos.free_ns":                lt.free.per(),
		"guestos.share":                  share("guestos"),
		"core.hit_ratio":                 ratio(c.f("guest.faults.magnet-hit"), magnet),
		"core.fault_ns":                  lt.coreFault.per(),
		"core.share":                     share("core"),
		"buddy.calls_per_fault":          ratio(c.f("guest.buddy_calls"), faults),
		"buddy.splits_per_alloc":         ratio(c.f("buddy.guest.splits"), c.sum("buddy.guest.alloc_calls[")),
		"buddy.alloc_ns":                 lt.buddyAlloc.per(),
		"buddy.free_ns":                  lt.buddyFree.per(),
		"buddy.share":                    share("buddy"),
		"hostos.faults_per_kaccess":      ratio(c.f("walker.host_faults")*1000, acc),
		"hostos.fault_ns":                lt.hostFault.per(),
		"hostos.share":                   share("hostos"),
		"balloon.watermark_hits":         c.f("balloon.watermark_hits"),
		"balloon.inflated_pages":         c.f("balloon.inflated_pages"),
		"balloon.unbacked_frames":        c.f("balloon.unbacked_frames"),
		"balloon.check_ns":               lt.balloonCheck.per(),
		"migrate.rounds":                 c.f("migrate.rounds"),
		"migrate.pages_copied":           c.f("migrate.pages_copied"),
		"migrate.ms":                     float64(traced.migrateMS),
		"runtime.alloc_bytes_per_access": ratio(float64(traced.allocBytes), acc),
		"runtime.gc_cycles":              float64(traced.gcCycles),
		"trace.overhead_frac":            ratio(lt.tracedNs, lt.runNs) - 1,
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
	}
}
