package balloon_test

import (
	"strings"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/physmem"
)

// rig is one host with a controller and n attached guests, each with a
// populated address space.
type rig struct {
	host    *hostos.Kernel
	ctl     *balloon.Controller
	vms     []*hostos.VM
	kernels []*guestos.Kernel
}

// newRig builds the rig: each guest spawns one process, maps touchBytes
// and faults every page, and (when back is true) the host backs the
// guest's whole physical range so unbacking has frames to free.
func newRig(t *testing.T, hostBytes, guestBytes, touchBytes uint64, n int, back bool) *rig {
	t.Helper()
	host := hostos.NewKernel(hostBytes)
	r := &rig{host: host, ctl: balloon.New(host)}
	host.SetPressureReliever(r.ctl)
	for i := 0; i < n; i++ {
		vm, err := host.CreateVM(guestBytes)
		if err != nil {
			t.Fatal(err)
		}
		gk := guestos.NewKernel(guestos.Config{MemBytes: guestBytes, Policy: guestos.PolicyDefault, Seed: 1, VMID: vm.ID()})
		p, err := gk.Spawn("w", guestBytes)
		if err != nil {
			t.Fatal(err)
		}
		if touchBytes > 0 {
			va, err := p.Mmap(touchBytes)
			if err != nil {
				t.Fatal(err)
			}
			for off := uint64(0); off < touchBytes; off += arch.PageSize {
				if _, err := p.HandlePageFault(va+arch.VirtAddr(off), true); err != nil {
					t.Fatal(err)
				}
			}
		}
		if back {
			for gpa := uint64(0); gpa < guestBytes; gpa += arch.PageSize {
				if err := vm.HandleFault(arch.PhysAddr(gpa)); err != nil {
					t.Fatal(err)
				}
			}
		}
		r.ctl.Attach(vm, gk, nil, nil)
		r.vms = append(r.vms, vm)
		r.kernels = append(r.kernels, gk)
	}
	return r
}

// drainHost allocates host frames until at most keepFree remain, returning
// the frames so the caller can put them back.
func drainHost(t *testing.T, host *hostos.Kernel, keepFree uint64) []arch.PhysAddr {
	t.Helper()
	var held []arch.PhysAddr
	for host.Memory().FreeFrames() > keepFree {
		pa, ok := host.Memory().AllocFrame(physmem.KindUser, physmem.Own(0, 0))
		if !ok {
			t.Fatal("host drain allocation failed")
		}
		held = append(held, pa)
	}
	return held
}

// TestRelieveForFreesHostFrames drives the full relief path: an exhausted
// host balloons its tenant, the guest surrenders free frames, and
// unbacking returns real host frames.
func TestRelieveForFreesHostFrames(t *testing.T) {
	r := newRig(t, 8<<20, 2<<20, 1<<20, 1, true)
	drainHost(t, r.host, 16)
	const need = 64
	summary, ok := r.ctl.RelieveFor(-1, need)
	if !ok {
		t.Fatalf("relief failed: %s", summary)
	}
	if free := r.host.Memory().FreeFrames(); free < need {
		t.Errorf("relief reported ok with only %d free frames, need %d", free, need)
	}
	if !strings.Contains(summary, "reclaimed") || !strings.Contains(summary, "vm1(") {
		t.Errorf("summary %q names no victim", summary)
	}
	s := r.ctl.Snapshot()
	if s.Reliefs != 1 || s.InflatedPages == 0 || s.UnbackedFrames == 0 {
		t.Errorf("stats after relief = %+v, want 1 relief with inflated and unbacked pages", s)
	}
	if r.kernels[0].BalloonPages() == 0 {
		t.Error("guest balloon empty after relief")
	}
}

// TestVictimOrderIsDeterministic pins the victim policy on equal working
// sets: ascending VM id, requester last. With nothing backed, no victim
// can actually free frames, so relieve visits them all and the summary
// records the full order.
func TestVictimOrderIsDeterministic(t *testing.T) {
	r := newRig(t, 4<<20, 64<<10, 0, 2, false)
	drainHost(t, r.host, 4)
	summary, ok := r.ctl.RelieveFor(r.vms[0].ID(), 1<<10)
	if ok {
		t.Fatal("relief with nothing to unback reported success")
	}
	if i, j := strings.Index(summary, "vm2("), strings.Index(summary, "vm1("); i < 0 || j < 0 || i > j {
		t.Errorf("requester not visited last: %q", summary)
	}
	if s := r.ctl.Snapshot(); s.ReliefFailures != 1 {
		t.Errorf("ReliefFailures = %d, want 1", s.ReliefFailures)
	}
}

// TestVictimOrderColdestFirst pins the working-set half of the policy:
// the tenant with the smaller dirty-page sample is ballooned first.
func TestVictimOrderColdestFirst(t *testing.T) {
	r := newRig(t, 16<<20, 2<<20, 256<<10, 2, true)
	// vm1 runs hot (many dirtied pages this window), vm2 cold.
	for gpa := uint64(0); gpa < 100*arch.PageSize; gpa += arch.PageSize {
		r.vms[0].MarkDirty(arch.PhysAddr(gpa))
	}
	r.vms[1].MarkDirty(0)
	r.ctl.Sample()
	drainHost(t, r.host, 4)
	summary, ok := r.ctl.RelieveFor(-1, 32)
	if !ok {
		t.Fatalf("relief failed: %s", summary)
	}
	if !strings.HasPrefix(summary, "vm2(") {
		t.Errorf("coldest tenant not ballooned first: %q", summary)
	}
}

// TestCheckWatermarks drives the periodic policy end to end: below the
// low watermark Check inflates, and once free frames recover past the
// high watermark Check deflates every balloon.
func TestCheckWatermarks(t *testing.T) {
	r := newRig(t, 8<<20, 2<<20, 1<<20, 1, true)
	total := r.host.Memory().NumFrames()
	held := drainHost(t, r.host, total/32) // below the 1/16 low watermark

	r.ctl.Check()
	s := r.ctl.Snapshot()
	if s.WatermarkHits != 1 || s.InflatedPages == 0 {
		t.Fatalf("low-watermark check = %+v, want a hit with inflation", s)
	}
	if r.kernels[0].BalloonPages() == 0 {
		t.Fatal("guest balloon empty after low-watermark check")
	}
	if free := r.host.Memory().FreeFrames(); free < total/8 {
		t.Errorf("inflation stopped at %d free frames, high watermark is %d", free, total/8)
	}

	for _, pa := range held {
		r.host.Memory().FreeBlock(pa)
	}
	r.ctl.Check()
	s = r.ctl.Snapshot()
	if s.Deflations != 1 || s.DeflatedPages == 0 {
		t.Fatalf("high-watermark check = %+v, want one full deflation", s)
	}
	if pages := r.kernels[0].BalloonPages(); pages != 0 {
		t.Errorf("balloon still holds %d pages after deflation", pages)
	}
}

// TestRelieveForNoVictims pins the degenerate summary: a controller with
// no tenants reports the failure in prose rather than panicking.
func TestRelieveForNoVictims(t *testing.T) {
	host := hostos.NewKernel(1 << 20)
	ctl := balloon.New(host)
	drainHost(t, host, 0)
	summary, ok := ctl.RelieveFor(-1, 8)
	if ok || summary != "no victims available" {
		t.Errorf("RelieveFor = (%q, %v), want (\"no victims available\", false)", summary, ok)
	}
}
