package hostos

import (
	"errors"
	"strings"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/physmem"
)

// fakeReliever scripts a PressureReliever: on each call it frees the next
// batch of held frames (if any) and reports the scripted summary.
type fakeReliever struct {
	mem     *physmem.Memory
	held    []arch.PhysAddr
	perCall int
	summary string
	calls   int
}

func (f *fakeReliever) RelieveFor(vm int, need uint64) (string, bool) {
	f.calls++
	n := f.perCall
	if n > len(f.held) {
		n = len(f.held)
	}
	for _, pa := range f.held[:n] {
		f.mem.FreeBlock(pa)
	}
	f.held = f.held[n:]
	return f.summary, f.mem.FreeFrames() >= need
}

// exhaust empties the host pool, returning the frames taken.
func exhaust(t *testing.T, k *Kernel) []arch.PhysAddr {
	t.Helper()
	var held []arch.PhysAddr
	for {
		pa, ok := k.mem.AllocFrame(physmem.KindUser)
		if !ok {
			return held
		}
		held = append(held, pa)
	}
}

// TestReliefRetriesAllocationOnce pins the bounded reclaim-then-retry
// contract: a fault that finds the pool empty asks the reliever once,
// retries once, and succeeds when relief freed enough.
func TestReliefRetriesAllocationOnce(t *testing.T) {
	k := NewKernel(4 << 20)
	vm, err := k.CreateVM(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Map one page first so the PT chain exists before exhaustion.
	if err := vm.HandleFault(0); err != nil {
		t.Fatal(err)
	}
	held := exhaust(t, k)
	r := &fakeReliever{mem: k.mem, held: held, perCall: 8, summary: "scripted"}
	k.SetPressureReliever(r)
	if err := vm.HandleFault(arch.PhysAddr(arch.PageSize)); err != nil {
		t.Fatalf("fault died despite a working reliever: %v", err)
	}
	if r.calls != 1 {
		t.Errorf("reliever called %d times, want exactly 1", r.calls)
	}
	if !vm.Mapped(arch.PhysAddr(arch.PageSize)) {
		t.Error("retried fault left the page unmapped")
	}
}

// TestOOMErrorCarriesBalloonSummary pins the satellite: when relief runs
// but cannot free enough, the surfaced OOMError embeds the attempt
// summary in its message.
func TestOOMErrorCarriesBalloonSummary(t *testing.T) {
	k := NewKernel(4 << 20)
	vm, err := k.CreateVM(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.HandleFault(0); err != nil {
		t.Fatal(err)
	}
	exhaust(t, k)
	r := &fakeReliever{mem: k.mem, summary: "vm9(ws=3,freed=0); 0 page(s) reclaimed"}
	k.SetPressureReliever(r)
	err = vm.HandleFault(arch.PhysAddr(arch.PageSize))
	if err == nil {
		t.Fatal("fault survived an exhausted host with a dry reliever")
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("err %T is not *OOMError", err)
	}
	if oom.Balloon != r.summary {
		t.Errorf("OOMError.Balloon = %q, want the relief summary", oom.Balloon)
	}
	if msg := err.Error(); !strings.Contains(msg, "[balloon: vm9(ws=3,freed=0)") {
		t.Errorf("message %q does not embed the balloon summary", msg)
	}
	if r.calls != 1 {
		t.Errorf("reliever called %d times, want exactly 1 (no unbounded retry)", r.calls)
	}
}

// TestOOMErrorWithoutRelieverOmitsBalloon pins the message shape on
// balloon-free hosts: no reliever, no "[balloon: ...]" suffix.
func TestOOMErrorWithoutRelieverOmitsBalloon(t *testing.T) {
	k := NewKernel(4 << 20)
	vm, err := k.CreateVM(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.HandleFault(0); err != nil {
		t.Fatal(err)
	}
	exhaust(t, k)
	err = vm.HandleFault(arch.PhysAddr(arch.PageSize))
	if err == nil {
		t.Fatal("fault survived an exhausted host")
	}
	if msg := err.Error(); strings.Contains(msg, "balloon") {
		t.Errorf("balloon-free OOM message %q mentions the balloon", msg)
	}
}

// TestNodeExhaustionTakesReliefPath pins the second relief site: when the
// frame allocation succeeds but the page-table node allocation does not,
// the same relieve-then-retry path runs before OOMError surfaces.
func TestNodeExhaustionTakesReliefPath(t *testing.T) {
	k := NewKernel(8 << 20)
	vm, err := k.CreateVM(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.HandleFault(0); err != nil {
		t.Fatal(err)
	}
	held := exhaust(t, k)
	// Give back exactly one frame: the data frame allocates, the fresh PT
	// chain for a distant gpa cannot.
	k.mem.FreeBlock(held[0])
	r := &fakeReliever{mem: k.mem, held: held[1:], perCall: 8, summary: "nodes"}
	k.SetPressureReliever(r)
	// 2MB-aligned distance forces a new leaf table.
	far := arch.PhysAddr(1 << 21)
	if err := vm.HandleFault(far); err != nil {
		t.Fatalf("node-starved fault died despite a working reliever: %v", err)
	}
	if r.calls == 0 {
		t.Error("reliever never consulted for node exhaustion")
	}
	if !vm.Mapped(far) {
		t.Error("retried mapping left the page unmapped")
	}
}
