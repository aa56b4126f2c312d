package guestos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/physmem"
)

// TestHandleFaultAtMatchesHandlePageFault builds twin kernels from one
// config and takes the same fault in each: through HandleFaultAt with the
// stop of a WalkAppend of the faulting process's table, and through
// HandlePageFault. Under every policy, and for an absent page, a COW write,
// a write to a read-only page that is not COW and an address outside every
// VMA, both must return the same kind and error and leave the same page
// tables and the same buddy free lists.
func TestHandleFaultAtMatchesHandlePageFault(t *testing.T) {
	type setup func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr)
	// region maps a fresh 4MB region in a new process and touches its
	// first page, so under THP the first 2MB is one large mapping.
	region := func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
		p := mustSpawn(t, k, "a")
		va := mustMmap(t, p, 4<<20)
		if _, err := p.HandlePageFault(va, true); err != nil {
			t.Fatal(err)
		}
		return p, va
	}
	// want names what the fault must do: map a page ("map"), copy or
	// re-enable a COW page ("cow"), find the page mapped ("mapped"), or
	// fail with ErrNoVMA ("no-vma").
	cases := []struct {
		name, want string
		write      bool
		setup      setup
	}{
		{"absent-first-touch", "map", false, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p := mustSpawn(t, k, "a")
			return p, mustMmap(t, p, 4<<20) + 0x123
		}},
		{"absent-new-leaf-node", "map", true, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			return p, va + pagetable.LargePageBytes + 5*arch.PageSize
		}},
		{"absent-beside-mapped", "map", true, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			if _, err := p.Touch(va + 9*arch.PageSize); err != nil {
				t.Fatal(err)
			}
			// Freeing the first page splits a THP mapping and gives a
			// PTEMagnet page back to its reservation.
			if err := p.Free(va, arch.PageSize); err != nil {
				t.Fatal(err)
			}
			return p, va
		}},
		{"cow-write-shared", "cow", true, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			if _, err := p.Fork("child"); err != nil {
				t.Fatal(err)
			}
			return p, va
		}},
		{"cow-write-last-sharer", "cow", true, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			child, err := p.Fork("child")
			if err != nil {
				t.Fatal(err)
			}
			child.Exit()
			return p, va
		}},
		{"write-read-only", "mapped", true, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			if _, err := p.demoteIfLarge(va); err != nil {
				t.Fatal(err)
			}
			if !p.pt.SetFlags(va, 0) {
				t.Fatal("SetFlags found no mapping")
			}
			return p, va
		}},
		{"outside-every-vma", "no-vma", false, func(t *testing.T, k *Kernel) (*Process, arch.VirtAddr) {
			p, va := region(t, k)
			return p, va - arch.GroupBytes
		}},
	}
	for _, policy := range []AllocPolicy{PolicyDefault, PolicyPTEMagnet, PolicyCAPaging, PolicyTHP} {
		for _, tc := range cases {
			t.Run(policy.String()+"/"+tc.name, func(t *testing.T) {
				cfg := Config{MemBytes: 16 << 20, Policy: policy, Seed: 1}
				walked, plain := NewKernel(cfg), NewKernel(cfg)
				pw, va := tc.setup(t, walked)
				pp, _ := tc.setup(t, plain)
				pt := pw.PageTable()
				walk, _, _, _ := pt.WalkAppend(nil, va, pt.Levels(), pt.Root())
				stop := pt.StopAt(va, walk, pt.Changes())
				kind, err := pw.HandleFaultAt(va, tc.write, stop)
				wantKind, wantErr := pp.HandlePageFault(va, tc.write)
				if kind != wantKind || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("HandleFaultAt = %v, %v; HandlePageFault = %v, %v", kind, err, wantKind, wantErr)
				}
				var did string
				switch {
				case errors.Is(err, ErrNoVMA):
					did = "no-vma"
				case err != nil:
					did = err.Error()
				case kind == FaultCOW:
					did = "cow"
				case kind == FaultAlreadyMapped:
					did = "mapped"
				default:
					did = "map"
				}
				if did != tc.want {
					t.Fatalf("fault = %v, %v; want %s", kind, err, tc.want)
				}
				if got, want := kernelTables(walked), kernelTables(plain); !reflect.DeepEqual(got, want) {
					t.Errorf("page tables differ:\n got %v\nwant %v", got, want)
				}
				if got, want := freeLists(walked.Memory()), freeLists(plain.Memory()); !reflect.DeepEqual(got, want) {
					t.Errorf("buddy free lists differ: %d frames drained, %d from the twin", len(got), len(want))
				}
			})
		}
	}
}

// tableEntry is one leaf or large entry of a page table, where it sits and
// what it maps.
type tableEntry struct {
	pid   int
	va    arch.VirtAddr
	entry arch.PhysAddr
	pa    arch.PhysAddr
	flags pagetable.Flags
}

// kernelTables lists every live process's page-table entries with their
// flags and entry addresses, and its node count.
func kernelTables(k *Kernel) []any {
	var out []any
	for _, p := range k.Processes() {
		out = append(out, p.pid, p.pt.NodeCount(), p.pt.LargeMappings())
		p.pt.ForEachMapped(func(va arch.VirtAddr, pa arch.PhysAddr, flags pagetable.Flags) bool {
			entry, _ := p.pt.LeafEntryAddr(va)
			out = append(out, tableEntry{p.pid, va, entry, pa, flags})
			return true
		})
	}
	return out
}

// freeLists drains mem's buddy allocator one frame at a time and returns
// the frames in the order it handed them out, which its free lists decide.
func freeLists(mem *physmem.Memory) []uint64 {
	var frames []uint64
	for {
		f, ok := mem.Buddy().AllocPage()
		if !ok {
			return frames
		}
		frames = append(frames, f)
	}
}
