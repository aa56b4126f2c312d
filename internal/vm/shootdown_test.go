package vm

import (
	"context"
	"errors"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/workload"
)

// TestGuestKernelShootsDownItsOwnMappings pins that a guest page-table
// change made through any guestos entry point, not only through the
// machine's run loop, reaches the guest's walker. After a run, a page
// whose writable translation sits in the main TLB must stop hitting once
// a fork write-protects it, a swap-out evicts it or an munmap drops its
// region.
func TestGuestKernelShootsDownItsOwnMappings(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(p *guestos.Process, va arch.VirtAddr) error
		// write is the access made after the change; a write after a fork
		// must take the COW fault.
		write bool
	}{
		{"fork", func(p *guestos.Process, _ arch.VirtAddr) error {
			_, err := p.Fork("child")
			return err
		}, true},
		{"swap-out", func(p *guestos.Process, va arch.VirtAddr) error {
			if !p.SwapOut(va) {
				return errors.New("nothing swapped out")
			}
			return nil
		}, false},
		{"munmap", func(p *guestos.Process, va arch.VirtAddr) error { return p.Munmap(va) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewHost(smallConfig(guestos.PolicyPTEMagnet))
			if err != nil {
				t.Fatal(err)
			}
			task, err := m.AddTask(workload.NewPagerank(workload.GraphConfig{
				DatasetBytes: 4 << 20, Accesses: 20_000, Seed: 9}), RolePrimary)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.RunWith(context.Background()); err != nil {
				t.Fatal(err)
			}
			w, p := m.Guests()[0].Walker(), task.Process()
			translate := func(va arch.VirtAddr, write bool) nested.Outcome {
				if out, hit := w.TranslateFast(p.ASID(), va, write); hit {
					return out
				}
				return w.TranslateSlow(0, p.ASID(), p.PageTable(), va, write)
			}
			va, err := p.Mmap(arch.GroupBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.HandlePageFault(va, true); err != nil {
				t.Fatal(err)
			}
			if out := translate(va, true); !out.Ok {
				t.Fatalf("write to the mapped page: %+v", out)
			}
			if _, hit := w.TranslateFast(p.ASID(), va, true); !hit {
				t.Fatal("the page's writable translation is not in the main TLB")
			}
			if err := tc.change(p, va); err != nil {
				t.Fatal(err)
			}
			out := translate(va, tc.write)
			if out.Ok || out.TLBHit || !out.GuestFault {
				t.Fatalf("access after %s: Ok=%v TLBHit=%v GuestFault=%v, want a guest fault",
					tc.name, out.Ok, out.TLBHit, out.GuestFault)
			}
			if tc.write {
				if kind, err := p.HandlePageFault(va, true); err != nil || kind != guestos.FaultCOW {
					t.Errorf("write fault after fork resolved as %v (%v), want %v", kind, err, guestos.FaultCOW)
				}
			}
		})
	}
}
