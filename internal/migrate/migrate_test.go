package migrate_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/buddy"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/migrate"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/vm"
)

// tinyScale is small enough that the equivalence proof (which runs every
// workload twice) stays fast.
func tinyScale() sim.Scale {
	return sim.Scale{
		HostMemBytes:      64 << 20,
		GuestMemBytes:     32 << 20,
		DatasetBytes:      4 << 20,
		Accesses:          30_000,
		CorunnerFootprint: 2 << 20,
		LLCBytes:          128 << 10,
		L2Bytes:           64 << 10,
	}
}

func tinyScenario(policy guestos.AllocPolicy) sim.Scenario {
	return sim.Scenario{
		Benchmark: "pagerank",
		Corunners: []string{"stress-ng"},
		Policy:    policy,
		Scale:     tinyScale(),
		Seed:      42,
	}
}

// buildSource assembles the colocated source machine for a scenario.
func buildSource(t *testing.T, policy guestos.AllocPolicy) *vm.Machine {
	t.Helper()
	m, err := sim.BuildMachine(tinyScenario(policy))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// buildDestination assembles a destination host with one idle tenant. The
// quantum matches sim.BuildMachine's so the migrated guest's tasks
// interleave on the destination exactly as they would have on the source.
func buildDestination(t *testing.T, hostMemBytes uint64) *vm.Machine {
	t.Helper()
	idleMem := uint64(16 << 20)
	if idleMem > hostMemBytes/2 {
		idleMem = hostMemBytes / 2
	}
	m, err := vm.NewHost(vm.HostConfig{
		HostMemBytes: hostMemBytes,
		Quantum:      2,
		Guests:       []vm.GuestConfig{{MemBytes: idleMem, Seed: 99}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mapping is one page of a process's guest-visible memory image.
type mapping struct {
	VA    arch.VirtAddr
	GPA   arch.PhysAddr
	Flags pagetable.Flags
}

// procImage is everything one guest process can observe about itself.
type procImage struct {
	PID      int
	Name     string
	RSS      uint64
	Mappings []mapping
}

// guestImage captures the guest-visible state of a guest: kernel counters,
// guest-physical allocator counters, executed accesses, and every
// process's va→gpa image. Host-side state (walker/TLB stats, cycle
// counts, host frame placement) is deliberately excluded — migration
// legitimately perturbs it.
type guestImage struct {
	Accesses   uint64
	Kernel     guestos.Stats
	GuestBuddy buddy.Stats
	Procs      []procImage
}

func imageOf(g *vm.Guest) guestImage {
	snap := g.Snapshot()
	img := guestImage{
		Accesses:   snap.Accesses,
		Kernel:     snap.Guest,
		GuestBuddy: snap.GuestBuddy,
	}
	for _, p := range g.Kernel().Processes() {
		pi := procImage{PID: p.PID(), Name: p.Name(), RSS: p.RSS()}
		p.PageTable().ForEachMapped(func(va arch.VirtAddr, gpa arch.PhysAddr, fl pagetable.Flags) bool {
			pi.Mappings = append(pi.Mappings, mapping{VA: va, GPA: gpa, Flags: fl})
			return true
		})
		img.Procs = append(img.Procs, pi)
	}
	return img
}

// TestMigrationEquivalence is the equivalence proof: a guest migrated at
// access count K and run to completion on the destination must be
// indistinguishable — to itself — from the same guest never migrated. The
// guest-visible image (kernel counters, guest-physical layout, every
// process's memory image) must DeepEqual; the host page table must hold
// exactly the image's pages.
func TestMigrationEquivalence(t *testing.T) {
	for _, policy := range []guestos.AllocPolicy{guestos.PolicyDefault, guestos.PolicyPTEMagnet} {
		t.Run(policy.String(), func(t *testing.T) {
			baseline := buildSource(t, policy)
			if err := baseline.RunWith(context.Background()); err != nil {
				t.Fatal(err)
			}
			want := imageOf(baseline.Guests()[0])

			src := buildSource(t, policy)
			const k = 10_000
			if err := src.RunWith(context.Background(), vm.WithStopAtAccesses(k)); err != nil {
				t.Fatal(err)
			}
			if src.PendingPrimaries() == 0 {
				t.Fatal("source finished before the migration point; shrink K")
			}
			dst := buildDestination(t, 128<<20)
			g := src.Guests()[0]
			rep, err := migrate.MigrateCtx(context.Background(), g, dst, migrate.Options{
				RoundAccesses: 2000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.PagesInitial == 0 || rep.PagesCopied < rep.PagesInitial {
				t.Errorf("implausible report: %+v", rep)
			}
			if g.Machine() != dst || !g.Alive() {
				t.Fatal("guest not adopted by destination")
			}
			if err := dst.RunWith(context.Background()); err != nil {
				t.Fatal(err)
			}
			got := imageOf(g)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("guest-visible state diverged after migration\nwant: %+v\ngot:  %+v", want, got)
			}

			// The destination EPT must back exactly the pages the guest
			// faulted in — the copied image plus post-migration faults,
			// never less.
			hostPT := g.HostVM().PageTable()
			for _, p := range got.Procs {
				for _, mp := range p.Mappings {
					if _, _, ok := hostPT.Translate(arch.VirtAddr(mp.GPA.PageBase())); !ok {
						t.Fatalf("guest page %#x of %s has no host backing on the destination", uint64(mp.GPA), p.Name)
					}
				}
			}

			// The source kept a frozen placeholder.
			ph := src.Guests()[0]
			if ph.Alive() {
				t.Error("source slot still alive after migration")
			}
			if snap := ph.Snapshot(); snap.Accesses == 0 || snap.Accesses > want.Accesses {
				t.Errorf("placeholder froze implausible access count %d", snap.Accesses)
			}
		})
	}
}

// TestMigrateCancelMidRound cancels from the OnRound hook and verifies the
// typed error, the errors.Is chain, and that the aborted migration left
// both machines intact: the source guest finishes normally afterwards and
// the destination holds no leftover VM or frames.
func TestMigrateCancelMidRound(t *testing.T) {
	src := buildSource(t, guestos.PolicyDefault)
	if err := src.RunWith(context.Background(), vm.WithStopAtAccesses(8000)); err != nil {
		t.Fatal(err)
	}
	dst := buildDestination(t, 128<<20)
	freeBefore := dst.Host().Memory().FreeFrames()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	_, err := migrate.MigrateCtx(ctx, src.Guests()[0], dst, migrate.Options{
		RoundAccesses: 1000,
		OnRound: func(round, dirtyPages int) {
			rounds = round
			if round == 2 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled migration succeeded")
	}
	var me *migrate.MigrateError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MigrateError", err)
	}
	if me.Phase != "precopy" || me.Round != 2 {
		t.Errorf("failure at phase %q round %d, want precopy round 2", me.Phase, me.Round)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("error does not match context.Canceled")
	}
	if errors.Is(err, migrate.ErrDestinationOOM) {
		t.Error("cancellation matched ErrDestinationOOM")
	}
	if rounds != 2 {
		t.Errorf("OnRound saw %d rounds, want 2", rounds)
	}

	// Destination fully rolled back: the idle tenant's VM is the only one,
	// and every copied frame coalesced back.
	if n := len(dst.Host().VMs()); n != 1 {
		t.Errorf("destination has %d VMs after abort, want 1", n)
	}
	if free := dst.Host().Memory().FreeFrames(); free != freeBefore {
		t.Errorf("destination leaked frames: %d free, want %d", free, freeBefore)
	}

	// Source undisturbed: the guest runs to completion.
	g := src.Guests()[0]
	if !g.Alive() || g.Machine() != src {
		t.Fatal("source guest damaged by aborted migration")
	}
	if err := src.RunWith(context.Background()); err != nil {
		t.Fatalf("source run after aborted migration: %v", err)
	}
}

// TestMigrateDestinationOOM migrates onto a host too small for the image
// and verifies the typed OOM surface plus full rollback.
func TestMigrateDestinationOOM(t *testing.T) {
	src := buildSource(t, guestos.PolicyDefault)
	if err := src.RunWith(context.Background(), vm.WithStopAtAccesses(8000)); err != nil {
		t.Fatal(err)
	}
	// 4MB of host memory cannot hold the ~4MB dataset plus co-runner and
	// page-table nodes.
	dst := buildDestination(t, 4<<20)
	freeBefore := dst.Host().Memory().FreeFrames()

	_, err := migrate.MigrateCtx(context.Background(), src.Guests()[0], dst, migrate.Options{})
	if err == nil {
		t.Fatal("migration onto exhausted host succeeded")
	}
	if !errors.Is(err, migrate.ErrDestinationOOM) {
		t.Errorf("error does not match ErrDestinationOOM: %v", err)
	}
	if !errors.Is(err, hostos.ErrOutOfMemory) {
		t.Errorf("error does not match hostos.ErrOutOfMemory: %v", err)
	}
	var me *migrate.MigrateError
	if !errors.As(err, &me) {
		t.Fatalf("error is %T, want *MigrateError", err)
	}

	if n := len(dst.Host().VMs()); n != 1 {
		t.Errorf("destination has %d VMs after OOM, want 1", n)
	}
	if free := dst.Host().Memory().FreeFrames(); free != freeBefore {
		t.Errorf("destination leaked frames: %d free, want %d", free, freeBefore)
	}
	g := src.Guests()[0]
	if !g.Alive() || g.Machine() != src {
		t.Fatal("source guest damaged by failed migration")
	}
	if err := src.RunWith(context.Background()); err != nil {
		t.Fatalf("source run after failed migration: %v", err)
	}
}

// TestMigrateFrozenRegistryRefused pins the loud contract: machines whose
// counter registries are built cannot take part in a migration.
func TestMigrateFrozenRegistryRefused(t *testing.T) {
	src := buildSource(t, guestos.PolicyDefault)
	if err := src.RunWith(context.Background(), vm.WithStopAtAccesses(4000)); err != nil {
		t.Fatal(err)
	}
	dst := buildDestination(t, 128<<20)
	dst.Registry()
	if _, err := migrate.MigrateCtx(context.Background(), src.Guests()[0], dst, migrate.Options{}); err == nil {
		t.Fatal("migration onto a registry-frozen destination succeeded")
	}
	// The refusal happened in validation: nothing was built on dst.
	if n := len(dst.Host().VMs()); n != 1 {
		t.Errorf("destination has %d VMs after refusal, want 1", n)
	}
}
