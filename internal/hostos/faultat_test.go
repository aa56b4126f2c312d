package hostos

import (
	"fmt"
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// unbackReliever relieves host pressure by unbacking one guest page.
type unbackReliever struct {
	vm  *VM
	gpa arch.PhysAddr
}

func (r *unbackReliever) RelieveFor(int, uint64) (string, bool) {
	return "unbacked", r.vm.Unback(r.gpa)
}

// TestHandleFaultAtMatchesHandleFault builds twin host kernels and takes
// the same EPT violation in each: through HandleFaultAt with the stop of a
// WalkAppend of the VM's host table, and through HandleFault. Both must
// return the same error and leave the same host page table and the same
// buddy free lists, including when the stop went stale between the walk
// and the fault (an Unback, or balloon relief inside the fault): then the
// map descends from the root and backs the page exactly once.
func TestHandleFaultAtMatchesHandleFault(t *testing.T) {
	const other = arch.PhysAddr(3 * arch.PageSize)
	cases := []struct {
		name string
		gpa  arch.PhysAddr
		// stale reports whether the stop must be outdated by the time
		// the map runs.
		stale bool
		// setup runs before the walk; between runs after it.
		setup, between func(t *testing.T, vm *VM)
	}{
		{name: "first-touch", gpa: 0x123456},
		{name: "beside-backed", gpa: 0x5010, setup: func(t *testing.T, vm *VM) { fault(t, vm, 0) }},
		{name: "backed", gpa: 0x10, setup: func(t *testing.T, vm *VM) { fault(t, vm, 0) }},
		{name: "beyond-vm-memory", gpa: 8 << 20},
		{name: "stale-after-unback", gpa: 0x5000, stale: true,
			setup: func(t *testing.T, vm *VM) { fault(t, vm, other) },
			between: func(t *testing.T, vm *VM) {
				if !vm.Unback(other) {
					t.Fatal("Unback found no backing")
				}
			}},
		{name: "stale-after-backing", gpa: 0x5000, stale: true,
			between: func(t *testing.T, vm *VM) { fault(t, vm, 0) }},
		{name: "stale-after-relief", gpa: 0x5000, stale: true,
			setup: func(t *testing.T, vm *VM) {
				fault(t, vm, other)
				for {
					if _, ok := vm.kernel.mem.AllocFrame(physmem.KindKernel); !ok {
						break
					}
				}
				vm.kernel.SetPressureReliever(&unbackReliever{vm: vm, gpa: other})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walked, plain := twinVM(t), twinVM(t)
			for _, vm := range []*VM{walked, plain} {
				if tc.setup != nil {
					tc.setup(t, vm)
				}
			}
			pt := walked.PageTable()
			changes := pt.Changes()
			walk, _, _, _ := pt.WalkAppend(nil, arch.VirtAddr(tc.gpa), pt.Levels(), pt.Root())
			stop := pt.StopAt(arch.VirtAddr(tc.gpa), walk, changes)
			for _, vm := range []*VM{walked, plain} {
				if tc.between != nil {
					tc.between(t, vm)
				}
			}
			err := walked.HandleFaultAt(tc.gpa, stop)
			wantErr := plain.HandleFault(tc.gpa)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("HandleFaultAt = %v; HandleFault = %v", err, wantErr)
			}
			if tc.stale && pt.Changes() == changes {
				t.Fatal("the stop stayed current; the case tests nothing stale")
			}
			if got, want := hostTable(walked), hostTable(plain); !reflect.DeepEqual(got, want) {
				t.Errorf("host page tables differ:\n got %v\nwant %v", got, want)
			}
			if got, want := freeFrames(walked), freeFrames(plain); !reflect.DeepEqual(got, want) {
				t.Errorf("buddy free lists differ: %d frames drained, %d from the twin", len(got), len(want))
			}
			if tc.stale && (!walked.Mapped(tc.gpa) || walked.Mapped(other)) {
				t.Errorf("after the fault: page backed %v, unbacked page backed %v", walked.Mapped(tc.gpa), walked.Mapped(other))
			}
		})
	}
}

// twinVM boots a small host with one 4MB VM.
func twinVM(t *testing.T) *VM {
	t.Helper()
	vm, err := NewKernel(8 << 20).CreateVM(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func fault(t *testing.T, vm *VM, gpa arch.PhysAddr) {
	t.Helper()
	if err := vm.HandleFault(gpa); err != nil {
		t.Fatal(err)
	}
}

// hostTable lists vm's host mappings with their leaf-entry addresses, and
// its node count.
func hostTable(vm *VM) []any {
	out := []any{vm.pt.NodeCount()}
	vm.pt.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, flags pagetable.Flags) bool {
		entry, _ := vm.pt.LeafEntryAddr(va)
		out = append(out, va, entry, pa, flags)
		return true
	})
	return out
}

// freeFrames drains the host buddy allocator one frame at a time and
// returns the frames in the order it handed them out, which its free lists
// decide.
func freeFrames(vm *VM) []uint64 {
	var frames []uint64
	for {
		f, ok := vm.kernel.mem.Buddy().AllocPage()
		if !ok {
			return frames
		}
		frames = append(frames, f)
	}
}
