package hostos

import (
	"errors"
	"strings"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

func TestCreateVMValidation(t *testing.T) {
	k := NewKernel(16 << 20)
	if _, err := k.CreateVM(0); err == nil {
		t.Error("CreateVM(0) succeeded")
	}
	var se *physmem.SizeError
	if _, err := k.CreateVM(100); !errors.As(err, &se) {
		t.Errorf("CreateVM(non-page-multiple) = %v, want physmem's size rule", err)
	}
	if _, err := k.CreateVM(8 << 20); err != nil {
		t.Errorf("CreateVM failed: %v", err)
	}
}

func TestFaultMapsGuestPage(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(8 << 20)
	gpa := arch.PhysAddr(0x123000)
	if _, ok := vm.Translate(gpa); ok {
		t.Fatal("unmapped gpa translates")
	}
	if err := vm.HandleFault(gpa + 0x10); err != nil {
		t.Fatal(err)
	}
	hpa, ok := vm.Translate(gpa + 0x10)
	if !ok {
		t.Fatal("gpa not mapped after fault")
	}
	if off := uint64(hpa) & arch.PageMask; off != 0x10 {
		t.Errorf("offset not preserved: %#x", uint64(hpa))
	}
	if vm.MappedGuestPages() != 1 {
		t.Errorf("mapped=%d", vm.MappedGuestPages())
	}
	// Repeat fault is a no-op.
	used := k.Memory().UsedFrames()
	vm.HandleFault(gpa)
	if got, _ := vm.Translate(gpa + 0x10); got != hpa || vm.MappedGuestPages() != 1 || k.Memory().UsedFrames() != used {
		t.Errorf("spurious fault remapped or allocated: hpa %#x, mapped %d, used %d", uint64(got), vm.MappedGuestPages(), k.Memory().UsedFrames())
	}
}

func TestFaultBeyondVMMemory(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(1 << 20)
	if err := vm.HandleFault(arch.PhysAddr(2 << 20)); err == nil {
		t.Error("fault beyond guest memory succeeded")
	}
}

func TestHostOOM(t *testing.T) {
	k := NewKernel(16 * arch.PageSize)
	vm, _ := k.CreateVM(1 << 20)
	var err error
	for i := 0; i < 64; i++ {
		if err = vm.HandleFault(arch.PhysAddr(i * arch.PageSize)); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestFailedFaultFreesItsFrame pins the node-allocation failure of a host
// fault: the data frame it took goes back, and the page stays unmapped.
func TestFailedFaultFreesItsFrame(t *testing.T) {
	k := NewKernel(64 << 10)
	vm, err := k.CreateVM(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for k.Memory().FreeFrames() > 1 {
		if _, ok := k.Memory().AllocFrame(physmem.KindKernel); !ok {
			t.Fatal("fill allocation failed")
		}
	}
	if err := vm.HandleFault(0x100000); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if got := k.Memory().FreeFrames(); got != 1 {
		t.Errorf("free frames after the failed fault = %d, want 1", got)
	}
	if vm.MappedGuestPages() != 0 {
		t.Errorf("mapped=%d, want 0", vm.MappedGuestPages())
	}
}

func TestScatteredGPAsScatterHostPTEs(t *testing.T) {
	// The §3.1 carry-over: contiguous guest-physical pages get adjacent
	// host leaf PTEs; scattered ones do not.
	k := NewKernel(64 << 20)
	vm, _ := k.CreateVM(32 << 20)
	// Contiguous gPAs → one cache block of host leaf PTEs.
	blocks := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		gpa := arch.PhysAddr(0x100000 + i*arch.PageSize)
		vm.HandleFault(gpa)
		ea, ok := vm.PageTable().LeafEntryAddr(arch.VirtAddr(gpa))
		if !ok {
			t.Fatal("leaf entry missing")
		}
		blocks[ea.CacheBlock()] = true
	}
	if len(blocks) != 1 {
		t.Errorf("contiguous gPAs occupy %d hPTE blocks, want 1", len(blocks))
	}
	// Scattered gPAs (64KB apart) → 8 distinct blocks.
	blocks = map[uint64]bool{}
	for i := 0; i < 8; i++ {
		gpa := arch.PhysAddr(0x1000000 + i*0x10000)
		vm.HandleFault(gpa)
		ea, _ := vm.PageTable().LeafEntryAddr(arch.VirtAddr(gpa))
		blocks[ea.CacheBlock()] = true
	}
	if len(blocks) != 8 {
		t.Errorf("scattered gPAs occupy %d hPTE blocks, want 8", len(blocks))
	}
}

func TestCreateVMWithLevels(t *testing.T) {
	k := NewKernel(32 << 20)
	vm5, err := k.CreateVMWithLevels(8<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if vm5.PageTable().Levels() != 5 {
		t.Errorf("Levels = %d", vm5.PageTable().Levels())
	}
	if _, err := k.CreateVMWithLevels(8<<20, 3); err == nil {
		t.Error("depth 3 accepted")
	}
	if err := vm5.HandleFault(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, ok := vm5.Translate(0x1000); !ok {
		t.Error("5-level host translate failed")
	}
}

func TestVMAccessors(t *testing.T) {
	k := NewKernel(32 << 20)
	vm, _ := k.CreateVM(8 << 20)
	if vm.ID() != 1 {
		t.Errorf("ID = %d", vm.ID())
	}
	if vm.GuestMemBytes() != 8<<20 {
		t.Errorf("GuestMemBytes = %d", vm.GuestMemBytes())
	}
	if k.Memory() == nil {
		t.Error("Memory nil")
	}
}

func TestMultiVMIDAssignment(t *testing.T) {
	k := NewKernel(64 << 20)
	a, _ := k.CreateVM(8 << 20)
	b, _ := k.CreateVM(8 << 20)
	c, _ := k.CreateVM(8 << 20)
	if a.ID() != 1 || b.ID() != 2 || c.ID() != 3 {
		t.Errorf("ids = %d,%d,%d, want 1,2,3", a.ID(), b.ID(), c.ID())
	}
	if got := len(k.VMs()); got != 3 {
		t.Errorf("VMs() has %d entries, want 3", got)
	}
	// Ids are monotonic: destroying b must not let a later VM reuse 2.
	k.DestroyVM(b)
	d, _ := k.CreateVM(8 << 20)
	if d.ID() != 4 {
		t.Errorf("id after teardown = %d, want 4 (no reuse)", d.ID())
	}
	if got := len(k.VMs()); got != 3 {
		t.Errorf("VMs() has %d entries after teardown+boot, want 3", got)
	}
}

func TestPerVMFaultCounters(t *testing.T) {
	k := NewKernel(64 << 20)
	a, _ := k.CreateVM(8 << 20)
	b, _ := k.CreateVM(8 << 20)
	for i := 0; i < 5; i++ {
		if err := a.HandleFault(arch.PhysAddr(i * arch.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := b.HandleFault(arch.PhysAddr(i * arch.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Each VM's frames are the pages its host page table maps and the
	// nodes it is built from.
	if a.MappedGuestPages() != 5 || b.MappedGuestPages() != 3 {
		t.Errorf("mapped = %d,%d, want 5,3", a.MappedGuestPages(), b.MappedGuestPages())
	}
	nodes := uint64(a.PageTable().NodeCount() + b.PageTable().NodeCount())
	if got := k.Memory().UsedFrames(); got != 8+nodes {
		t.Errorf("host holds %d frames, want 8 mapped + %d nodes", got, nodes)
	}
}

func TestTwoVMHostExhaustion(t *testing.T) {
	// Two VMs competing for a tiny host: the second faulting VM must hit a
	// typed OOM naming itself, while errors.Is compatibility holds.
	k := NewKernel(24 * arch.PageSize)
	a, _ := k.CreateVM(1 << 20)
	b, _ := k.CreateVM(1 << 20)
	var err error
	for i := 0; err == nil && i < 64; i++ {
		err = a.HandleFault(arch.PhysAddr(i * arch.PageSize))
		if err == nil {
			err = b.HandleFault(arch.PhysAddr(i * arch.PageSize))
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory compatibility", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v, want *OOMError", err)
	}
	if oom.VM != a.ID() && oom.VM != b.ID() {
		t.Errorf("OOMError.VM = %d, want one of %d/%d", oom.VM, a.ID(), b.ID())
	}
	if oom.NeedPages != 1 {
		t.Errorf("OOMError.NeedPages = %d, want 1", oom.NeedPages)
	}
}

func TestDestroyVMReturnsFrames(t *testing.T) {
	k := NewKernel(64 << 20)
	free0 := k.Memory().FreeFrames()
	vm, _ := k.CreateVM(8 << 20)
	for i := 0; i < 32; i++ {
		if err := vm.HandleFault(arch.PhysAddr(i * arch.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	if k.Memory().FreeFrames() >= free0 {
		t.Fatal("faulting allocated nothing")
	}
	k.DestroyVM(vm)
	if vm.Alive() {
		t.Error("VM alive after DestroyVM")
	}
	if got := k.Memory().FreeFrames(); got != free0 {
		t.Errorf("free frames after teardown = %d, want %d (all frames returned)", got, free0)
	}
	if got := k.Memory().UsedFrames(); got != 0 {
		t.Errorf("host still holds %d frames after teardown", got)
	}
	// Coalescing: a max-order block must be allocatable again.
	if _, ok := k.Memory().AllocOrder(3, physmem.KindUser); !ok {
		t.Error("order-3 allocation failed after teardown (no coalescing)")
	}
	// Double-destroy is a no-op.
	k.DestroyVM(vm)
}

// faultPages faults in n distinct guest-physical pages starting at page 0.
func faultPages(t *testing.T, vm *VM, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := vm.HandleFault(arch.PhysAddr(uint64(i) << arch.PageShift)); err != nil {
			t.Fatalf("fault page %d: %v", i, err)
		}
	}
}

func TestDirtyLogTransitionsOnly(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(8 << 20)
	faultPages(t, vm, 4)
	// Writes before logging is enabled are invisible.
	vm.MarkDirty(arch.PhysAddr(0))
	vm.EnableDirtyLogging(0)
	if !vm.DirtyLogging() {
		t.Fatal("DirtyLogging false after enable")
	}
	// Only the clear→set transition logs; repeated writes do not.
	vm.MarkDirty(arch.PhysAddr(2 << arch.PageShift))
	vm.MarkDirty(arch.PhysAddr(2<<arch.PageShift + 0x40))
	vm.MarkDirty(arch.PhysAddr(0))
	// Writes to pages without host backing are ignored.
	vm.MarkDirty(arch.PhysAddr(100 << arch.PageShift))
	pages, rescan := vm.DrainDirtyLog()
	if rescan {
		t.Error("unexpected rescan")
	}
	want := []arch.PhysAddr{2 << arch.PageShift, 0}
	if len(pages) != len(want) || pages[0] != want[0] || pages[1] != want[1] {
		t.Errorf("drain = %#v, want %#v (first-write order)", pages, want)
	}
	if vm.DirtyLogged() != 2 {
		t.Errorf("DirtyLogged = %d, want 2", vm.DirtyLogged())
	}
	// Drain cleared the bits: the next write logs again.
	vm.MarkDirty(arch.PhysAddr(0))
	pages, _ = vm.DrainDirtyLog()
	if len(pages) != 1 || pages[0] != 0 {
		t.Errorf("re-dirty after drain = %#v, want [0]", pages)
	}
}

func TestDirtyLogOverflowRescans(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(8 << 20)
	faultPages(t, vm, 8)
	vm.EnableDirtyLogging(4)
	// Dirty 6 pages in descending order: the buffer holds the first 4, the
	// rest only set EPT dirty bits.
	for i := 5; i >= 0; i-- {
		vm.MarkDirty(arch.PhysAddr(uint64(i) << arch.PageShift))
	}
	pages, rescan := vm.DrainDirtyLog()
	if !rescan {
		t.Fatal("overflowed log drained without rescan")
	}
	if vm.DirtyLogOverflows() != 1 {
		t.Errorf("DirtyLogOverflows = %d, want 1", vm.DirtyLogOverflows())
	}
	// The rescan reports every dirty page in ascending guest-physical
	// order, including the ones the buffer dropped.
	if len(pages) != 6 {
		t.Fatalf("rescan found %d pages, want 6", len(pages))
	}
	for i, gpa := range pages {
		if gpa != arch.PhysAddr(uint64(i)<<arch.PageShift) {
			t.Errorf("pages[%d] = %#x, want %#x", i, uint64(gpa), uint64(i)<<arch.PageShift)
		}
	}
	if vm.DirtyLogged() != 6 {
		t.Errorf("DirtyLogged = %d, want 6", vm.DirtyLogged())
	}
	// The overflow latch reset: a small batch drains from the buffer again.
	vm.MarkDirty(arch.PhysAddr(7 << arch.PageShift))
	pages, rescan = vm.DrainDirtyLog()
	if rescan || len(pages) != 1 {
		t.Errorf("post-overflow drain = %#v rescan=%v, want 1 page from buffer", pages, rescan)
	}
}

func TestDisableDirtyLoggingClearsBits(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(8 << 20)
	faultPages(t, vm, 2)
	vm.EnableDirtyLogging(0)
	vm.MarkDirty(arch.PhysAddr(0))
	vm.DisableDirtyLogging()
	if vm.DirtyLogging() {
		t.Fatal("DirtyLogging true after disable")
	}
	// Stale bits must not leak into a new tracking session.
	vm.EnableDirtyLogging(0)
	if pages, _ := vm.DrainDirtyLog(); len(pages) != 0 {
		t.Errorf("fresh session drained stale pages: %#v", pages)
	}
}

func TestMapMigratedPage(t *testing.T) {
	k := NewKernel(16 << 20)
	vm, _ := k.CreateVM(8 << 20)
	gpa := arch.PhysAddr(5 << arch.PageShift)
	if err := vm.MapMigratedPage(gpa + 0x20); err != nil {
		t.Fatal(err)
	}
	if !vm.Mapped(gpa) {
		t.Fatal("page unmapped after MapMigratedPage")
	}
	if vm.MappedGuestPages() != 1 {
		t.Errorf("migration copy mapped %d pages, want 1", vm.MappedGuestPages())
	}
	// Re-copying a shipped page keeps the existing mapping.
	hpa0, _ := vm.Translate(gpa)
	if err := vm.MapMigratedPage(gpa); err != nil {
		t.Fatal(err)
	}
	if hpa, _ := vm.Translate(gpa); hpa != hpa0 {
		t.Errorf("re-copy remapped the page: %#x → %#x", uint64(hpa0), uint64(hpa))
	}
	if err := vm.MapMigratedPage(arch.PhysAddr(16 << 20)); err == nil {
		t.Error("MapMigratedPage beyond guest memory succeeded")
	}
	// OOM surfaces the typed error.
	small := NewKernel(8 * arch.PageSize)
	sv, err := small.CreateVM(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var oomAt arch.PhysAddr
	for i := uint64(0); i < 8; i++ {
		if err := sv.MapMigratedPage(arch.PhysAddr(i << arch.PageShift)); err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("OOM not errors.Is(ErrOutOfMemory): %v", err)
			}
			oomAt = arch.PhysAddr(i << arch.PageShift)
			break
		}
	}
	if oomAt == 0 {
		t.Error("tiny host never ran out of frames")
	}
}

// TestOOMErrorWrapsCause pins the error-chain contract: an OOMError
// carrying a cause exposes it through Unwrap, so errors.Is reaches both
// the OOMError sentinel behaviour and the wrapped cause.
func TestOOMErrorWrapsCause(t *testing.T) {
	cause := errors.New("injected cause")
	err := &OOMError{VM: 3, NeedPages: 1, Err: cause}
	if !errors.Is(err, cause) {
		t.Error("cause not reachable through Unwrap")
	}
	if !strings.Contains(err.Error(), "injected cause") {
		t.Errorf("cause missing from message %q", err.Error())
	}
	var oom *OOMError
	if !errors.As(error(err), &oom) || oom.VM != 3 {
		t.Error("errors.As lost the OOMError")
	}

	organic := &OOMError{VM: 1, NeedPages: 2}
	if organic.Unwrap() != nil {
		t.Error("organic OOMError unwraps non-nil")
	}
	if errors.Is(organic, cause) {
		t.Error("organic OOMError matched an unrelated cause")
	}
}
