// Guest hand-off between machines: the detach/attach halves of a live
// migration. The copy protocol (pre-copy rounds over the dirty-page log,
// stop-and-copy, downtime accounting) lives in internal/migrate; this file
// owns only the machine-side surgery, because it has to reach into the
// scheduler's task list and the guests' slots.
package vm

import (
	"fmt"

	"ptemagnet/internal/hostos"
)

// DetachGuest removes g from m so another machine can adopt it. The guest's
// tasks leave m's schedule, its walker drops every cached translation (the
// gVA→hPA and gPA→hPA entries die with the source host page table), and the
// source host VM is destroyed — every host frame and EPT node returns to
// the source buddy allocator in ascending order, completing the
// physical-memory half of the owner transfer. g keeps its slot in
// m.Guests() as a frozen placeholder (Alive false, counters fixed at
// departure), so the source machine's per-guest telemetry stays coherent.
//
// Callers normally use migrate.MigrateCtx rather than calling this
// directly: the guest-physical image must be copied to the destination
// before detach, while the source page table still describes it.
func (m *Machine) DetachGuest(g *Guest) error {
	if g == nil || g.m != m {
		return fmt.Errorf("vm: guest does not belong to this machine")
	}
	if !g.alive || g.migratedOut {
		return fmt.Errorf("vm: guest %d is not alive", g.index)
	}
	m.guests[g.index] = &Guest{
		m:           m,
		index:       g.index,
		cfg:         g.cfg,
		migratedOut: true,
		frozen:      g.Snapshot(),
		frozenVMID:  g.hostVM.ID(),
	}
	kept := make([]*Task, 0, len(m.tasks))
	for _, t := range m.tasks {
		if t.guest != g {
			t.index = len(kept)
			kept = append(kept, t)
		}
	}
	m.tasks = kept
	g.walker.InvalidateAll()
	if m.balloon != nil {
		m.balloon.Detach(g.hostVM)
	}
	m.host.DestroyVM(g.hostVM)
	g.m = nil
	g.hostVM = nil
	g.alive = false
	return nil
}

// AttachGuest adopts a detached guest onto m — the destination half of a
// live migration. hostVM must be a VM of m's host kernel whose page table
// already holds the migrated guest-physical image (the migration engine
// populates it page by page before the hand-off). The guest's walker is
// rebound to m's cache hierarchy and the new host VM, its tasks join m's
// schedule with vCPU pins recomputed by the same round-robin rule AddTask
// uses, and the guest resumes exactly where the source paused it. Fails if
// hostVM is not a live VM of m's host, or if the guest is not actually
// detached.
func (m *Machine) AttachGuest(g *Guest, hostVM *hostos.VM) error {
	if g == nil || g.m != nil || g.migratedOut {
		return fmt.Errorf("vm: guest is not detached")
	}
	owned := false
	for _, v := range m.host.VMs() {
		if v == hostVM {
			owned = true
			break
		}
	}
	if !owned || !hostVM.Alive() {
		return fmt.Errorf("vm: host VM does not belong to this machine's host")
	}
	g.m = m
	g.index = len(m.guests)
	g.hostVM = hostVM
	g.alive = true
	g.walker.Rebind(m.hier, hostVM)
	hostVM.SetInvalidateGPA(g.walker.InvalidateGPA)
	if m.balloon != nil {
		m.balloon.Attach(hostVM, g.kernel)
	}
	for i, t := range g.tasks {
		t.cpu = (g.index + i) % m.cfg.NumCPUs
		t.index = len(m.tasks)
		m.tasks = append(m.tasks, t)
	}
	m.guests = append(m.guests, g)
	return nil
}
