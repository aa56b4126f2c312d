package guestos

import (
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// shootdown is one call a kernel made on its TLB.
type shootdown struct {
	op         string
	asid       uint32
	start, end arch.VirtAddr
}

// recordingTLB is a TLB that records every shootdown in call order.
type recordingTLB struct{ calls []shootdown }

func (r *recordingTLB) InvalidateRange(asid uint32, start, end arch.VirtAddr) {
	r.calls = append(r.calls, shootdown{"range", asid, start, end})
}

func (r *recordingTLB) InvalidateASID(asid uint32) {
	r.calls = append(r.calls, shootdown{op: "asid", asid: asid})
}

func (r *recordingTLB) InvalidateGuestPWC(asid uint32, va arch.VirtAddr) {
	r.calls = append(r.calls, shootdown{op: "pwc", asid: asid, start: va})
}

func TestBalloonInflateFromFreeFrames(t *testing.T) {
	k := defaultKernel(t)
	tlb := &recordingTLB{}
	k.SetTLB(tlb)
	delta := k.SetBalloonTarget(10)
	if got := len(delta.Inflated); got != 10 {
		t.Fatalf("inflated %d pages, want 10", got)
	}
	if delta.SwappedPages != 0 || len(tlb.calls) != 0 || len(delta.Deflated) != 0 {
		t.Errorf("free-frame inflation swapped %d pages (%d shootdowns) / deflated %d, want none",
			delta.SwappedPages, len(tlb.calls), len(delta.Deflated))
	}
	if k.BalloonPages() != 10 || k.BalloonTarget() != 10 {
		t.Errorf("balloon holds %d pages toward target %d, want 10/10", k.BalloonPages(), k.BalloonTarget())
	}
	if got := k.Memory().UsedFrames(); got != 10 {
		t.Errorf("%d frames out of the buddy, want the balloon's 10", got)
	}
	checkInvariants(t, k, 0)
}

// TestBalloonInflationBreaksReservations pins escalation source 2: when
// free frames run out, inflation runs the reclaim daemon past its
// watermark gate and feeds on liberated PTEMagnet reservations.
func TestBalloonInflationBreaksReservations(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 3<<20)
	groups := (3 << 20) / arch.GroupBytes
	for i := 0; i < groups; i++ {
		if _, err := p.HandlePageFault(va+arch.VirtAddr(i*arch.GroupBytes), false); err != nil {
			t.Fatalf("fault %d: %v", i, err)
		}
	}
	freeBefore := k.Memory().FreeFrames()
	target := freeBefore + 100 // cannot be met from free frames alone
	tlb := &recordingTLB{}
	k.SetTLB(tlb)
	delta := k.SetBalloonTarget(target)
	s := k.Snapshot()
	if s.ReclaimedReservations == 0 || s.ReclaimedPages == 0 {
		t.Errorf("inflation past free frames reclaimed %d reservations / %d pages, want both nonzero",
			s.ReclaimedReservations, s.ReclaimedPages)
	}
	if uint64(len(delta.Inflated)) <= freeBefore-balloonReserveFrames {
		t.Errorf("inflated only %d pages with %d free before — reclaim contributed nothing",
			len(delta.Inflated), freeBefore)
	}
	if delta.SwappedPages != 0 || len(tlb.calls) != 0 {
		t.Errorf("swapped %d pages (%d shootdowns) while reservations were still reclaimable",
			delta.SwappedPages, len(tlb.calls))
	}
}

// TestBalloonSwapOutLastResort pins escalation source 3 and its
// determinism: with nothing free and nothing reserved, inflation evicts
// mapped pages under the FIFO cursor, shoots each down once as it goes,
// and two identical kernels evict and shoot down the identical sequence.
func TestBalloonSwapOutLastResort(t *testing.T) {
	const span = 600 << 10
	build := func() (*Kernel, *Process, arch.VirtAddr, *recordingTLB) {
		k := NewKernel(Config{MemBytes: 1 << 20, Policy: PolicyDefault, Seed: 1})
		p := mustSpawn(t, k, "a")
		va := mustMmap(t, p, span)
		for off := uint64(0); off < span; off += arch.PageSize {
			if _, err := p.HandlePageFault(va+arch.VirtAddr(off), true); err != nil {
				t.Fatalf("fault at %#x: %v", off, err)
			}
		}
		tlb := &recordingTLB{}
		k.SetTLB(tlb)
		return k, p, va, tlb
	}
	k1, p1, va1, tlb1 := build()
	target := k1.Memory().FreeFrames() + 40
	d1 := k1.SetBalloonTarget(target)
	if d1.SwappedPages == 0 {
		t.Fatal("inflation past free+reclaimable frames swapped nothing out")
	}
	// The evicted pages are the ones no longer mapped; the cursor takes
	// them in ascending address order, and each is shot down once.
	var evicted []shootdown
	for off := uint64(0); off < span; off += arch.PageSize {
		page := va1 + arch.VirtAddr(off)
		if _, ok := p1.Translate(page); !ok {
			evicted = append(evicted, shootdown{"range", p1.ASID(), page, page + arch.PageSize})
		}
	}
	if uint64(len(evicted)) != d1.SwappedPages || !reflect.DeepEqual(tlb1.calls, evicted) {
		t.Errorf("%d pages swapped, %d unmapped, %d shootdowns; want one one-page shootdown per evicted page, in eviction order",
			d1.SwappedPages, len(evicted), len(tlb1.calls))
	}
	k2, _, _, tlb2 := build()
	d2 := k2.SetBalloonTarget(target)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(tlb1.calls, tlb2.calls) {
		t.Errorf("identical kernels produced different balloon deltas or shootdowns:\n%+v\n%+v", d1, d2)
	}
	checkInvariants(t, k1, 0)
}

// TestBalloonDeflateRestoresAllocator pins the satellite contract: after
// an inflate-then-deflate cycle, the kernel's allocation behaviour is
// identical counter-for-counter to a kernel that never ballooned — same
// buddy free lists, same physical placements, same stat deltas.
func TestBalloonDeflateRestoresAllocator(t *testing.T) {
	build := func() (*Kernel, *Process, arch.VirtAddr) {
		k := NewKernel(Config{MemBytes: 16 << 20, Policy: PolicyPTEMagnet, Seed: 1})
		p := mustSpawn(t, k, "a")
		va := mustMmap(t, p, 4<<20)
		for off := uint64(0); off < 1<<20; off += arch.PageSize {
			if _, err := p.HandlePageFault(va+arch.VirtAddr(off), false); err != nil {
				t.Fatalf("fault at %#x: %v", off, err)
			}
		}
		return k, p, va
	}
	cycled, pc, vaC := build()
	pristine, pp, vaP := build()
	if d := cycled.SetBalloonTarget(200); len(d.Inflated) != 200 {
		t.Fatalf("inflated %d pages, want 200", len(d.Inflated))
	}
	if d := cycled.SetBalloonTarget(0); len(d.Deflated) != 200 {
		t.Fatalf("deflated %d pages, want 200", len(d.Deflated))
	}

	if a, b := cycled.Memory().Buddy().FreeBlocksByOrder(), pristine.Memory().Buddy().FreeBlocksByOrder(); a != b {
		t.Errorf("free lists after deflate differ from never-ballooned kernel:\n%v\n%v", a, b)
	}
	if a, b := cycled.Memory().FreeFrames(), pristine.Memory().FreeFrames(); a != b {
		t.Errorf("free frames %d after deflate, pristine kernel has %d", a, b)
	}

	// Identical post-cycle workload lands on identical physical frames
	// with identical counters.
	s1, s2 := cycled.Snapshot(), pristine.Snapshot()
	for off := uint64(1 << 20); off < 2<<20; off += arch.PageSize {
		if _, err := pc.HandlePageFault(vaC+arch.VirtAddr(off), false); err != nil {
			t.Fatal(err)
		}
		if _, err := pp.HandlePageFault(vaP+arch.VirtAddr(off), false); err != nil {
			t.Fatal(err)
		}
		paC, _, okC := pc.pt.Translate(vaC + arch.VirtAddr(off))
		paP, _, okP := pp.pt.Translate(vaP + arch.VirtAddr(off))
		if !okC || !okP || paC != paP {
			t.Fatalf("post-cycle fault at +%#x landed on %#x, pristine kernel on %#x", off, uint64(paC), uint64(paP))
		}
	}
	d1, d2 := cycled.Snapshot().Delta(s1), pristine.Snapshot().Delta(s2)
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("post-cycle stat deltas diverge:\ncycled:   %+v\npristine: %+v", d1, d2)
	}
}

// TestBalloonTargetUpdateFiresReclaim pins that the §4.3 daemon runs on
// balloon-target updates, not only on the allocation path: inflation
// raises used memory past the watermark without a single page fault, and
// the daemon must still fire.
func TestBalloonTargetUpdateFiresReclaim(t *testing.T) {
	k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, ReclaimWatermark: 0.5, Seed: 1})
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 1<<20)
	groups := (1 << 20) / arch.GroupBytes
	for i := 0; i < groups; i++ {
		if _, err := p.HandlePageFault(va+arch.VirtAddr(i*arch.GroupBytes), false); err != nil {
			t.Fatal(err)
		}
	}
	boundary := k.Memory().NumFrames() / 2
	if used := k.Memory().UsedFrames(); used >= boundary {
		t.Fatalf("setup already past watermark: %d/%d used", used, boundary)
	}
	before := k.Snapshot()
	k.SetBalloonTarget(boundary - k.Memory().UsedFrames() + 20)
	after := k.Snapshot()
	if after.ReclaimRuns == before.ReclaimRuns {
		t.Error("inflation crossed the watermark but the reclaim daemon never ran")
	}
	if after.ReclaimedReservations == before.ReclaimedReservations {
		t.Error("daemon ran without destroying any reservation despite reclaimable groups")
	}
}

// TestBalloonWatermarkBoundary pins the boundary convention: used memory
// at exactly the watermark counts as pressure (>=), one frame below does
// not.
func TestBalloonWatermarkBoundary(t *testing.T) {
	build := func(padTo uint64) *Kernel {
		k := NewKernel(Config{MemBytes: 4 << 20, Policy: PolicyPTEMagnet, ReclaimWatermark: 0.5, Seed: 1})
		p := mustSpawn(t, k, "a")
		va := mustMmap(t, p, 1<<20)
		if _, err := p.HandlePageFault(va, false); err != nil {
			t.Fatal(err)
		}
		for k.Memory().UsedFrames() < padTo {
			if _, ok := k.Memory().AllocFrame(physmem.KindUser); !ok {
				t.Fatal("pad allocation failed")
			}
		}
		return k
	}

	boundary := NewKernel(Config{MemBytes: 4 << 20}).Memory().NumFrames() / 2

	at := build(boundary)
	before := at.Snapshot()
	at.SetBalloonTarget(at.BalloonPages()) // pure pressure check, no movement
	if after := at.Snapshot(); after.ReclaimRuns == before.ReclaimRuns || after.ReclaimedReservations == 0 {
		t.Errorf("used == watermark did not trigger reclaim (runs %d→%d)", before.ReclaimRuns, after.ReclaimRuns)
	}

	below := build(boundary - 1)
	before = below.Snapshot()
	below.SetBalloonTarget(below.BalloonPages())
	if after := below.Snapshot(); after.ReclaimRuns != before.ReclaimRuns {
		t.Errorf("used == watermark-1 triggered reclaim (runs %d→%d)", before.ReclaimRuns, after.ReclaimRuns)
	}
}

// TestDeflateOnOOMRescuesAllocation pins the virtio-balloon deflate-on-
// OOM feature: an exhausted guest pool releases balloon frames instead of
// failing the allocation, and the target is clamped so the freed frames
// are not immediately re-swallowed.
func TestDeflateOnOOMRescuesAllocation(t *testing.T) {
	k := NewKernel(Config{MemBytes: 1 << 20, Policy: PolicyDefault, Seed: 1})
	if d := k.SetBalloonTarget(200); len(d.Inflated) != 200 {
		t.Fatalf("inflated %d pages, want 200", len(d.Inflated))
	}
	p := mustSpawn(t, k, "a")
	va := mustMmap(t, p, 400<<10)
	for off := uint64(0); off < 400<<10; off += arch.PageSize {
		if _, err := p.HandlePageFault(va+arch.VirtAddr(off), false); err != nil {
			t.Fatalf("fault at %#x died despite a full balloon: %v", off, err)
		}
	}
	if k.BalloonPages() >= 200 {
		t.Errorf("balloon still holds %d pages after OOM pressure, want deflation", k.BalloonPages())
	}
	if k.BalloonTarget() != k.BalloonPages() {
		t.Errorf("target %d not clamped to held pages %d after deflate-on-OOM", k.BalloonTarget(), k.BalloonPages())
	}
}
