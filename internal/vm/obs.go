// Observability for the assembled machine (DESIGN.md §8): one aggregated
// Stats snapshot across every stat-bearing component, per-guest stats for
// the multi-tenant host, the Report returned by Observe, and the named
// counter registry behind run telemetry.
package vm

import (
	"fmt"

	"ptemagnet/internal/buddy"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/tlb"
)

// Stats aggregates every counter the machine owns: its own access total
// plus the per-component stats, each following the Snapshot/Delta
// contract. On a multi-tenant host the per-guest components (walker, TLB,
// guest kernel, guest buddy) are summed across guests; the shared
// components (data caches, host buddy) are read directly.
type Stats struct {
	// Accesses is the machine-wide executed access count.
	Accesses uint64
	// Walker holds the nested page-walker counters.
	Walker nested.Stats
	// Cache holds the data-cache hierarchy counters.
	Cache cache.Stats
	// TLB holds the main two-level TLB counters.
	TLB tlb.TwoLevelStats
	// Guest holds the guest kernel counters.
	Guest guestos.Stats
	// GuestBuddy and HostBuddy hold the two buddy allocators' counters.
	GuestBuddy buddy.Stats
	HostBuddy  buddy.Stats
}

// Delta returns the component-wise difference s - prev.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - prev.Accesses,
		Walker:     s.Walker.Delta(prev.Walker),
		Cache:      s.Cache.Delta(prev.Cache),
		TLB:        s.TLB.Delta(prev.TLB),
		Guest:      s.Guest.Delta(prev.Guest),
		GuestBuddy: s.GuestBuddy.Delta(prev.GuestBuddy),
		HostBuddy:  s.HostBuddy.Delta(prev.HostBuddy),
	}
}

// GuestStats is one guest's slice of the machine counters: its private
// translation machinery and kernel, without the shared host components.
type GuestStats struct {
	// Accesses is the guest's executed access count.
	Accesses uint64
	// Walker holds the guest's nested page-walker counters.
	Walker nested.Stats
	// TLB holds the guest's main two-level TLB counters.
	TLB tlb.TwoLevelStats
	// Guest holds the guest kernel counters.
	Guest guestos.Stats
	// GuestBuddy holds the guest-physical buddy allocator counters.
	GuestBuddy buddy.Stats
}

// Delta returns the component-wise difference s - prev.
func (s GuestStats) Delta(prev GuestStats) GuestStats {
	return GuestStats{
		Accesses:   s.Accesses - prev.Accesses,
		Walker:     s.Walker.Delta(prev.Walker),
		TLB:        s.TLB.Delta(prev.TLB),
		Guest:      s.Guest.Delta(prev.Guest),
		GuestBuddy: s.GuestBuddy.Delta(prev.GuestBuddy),
	}
}

// Snapshot reads the guest's counters at once. Destroyed guests return
// their frozen final values; so does the placeholder a migrated guest
// leaves behind (the live counters travelled with the guest).
func (g *Guest) Snapshot() GuestStats {
	if g.migratedOut {
		return g.frozen
	}
	var accesses uint64
	for _, t := range g.tasks {
		accesses += t.Accesses
	}
	return GuestStats{
		Accesses:   accesses,
		Walker:     g.walker.Snapshot(),
		TLB:        g.walker.TLB().Snapshot(),
		Guest:      g.kernel.Snapshot(),
		GuestBuddy: g.kernel.Memory().Buddy().Snapshot(),
	}
}

// sumCounters adds two counter snapshots of the same all-uint64 stats
// type using only the Snapshot/Delta contract: zero.Delta(b) negates b
// under two's-complement wraparound, so a.Delta(-b) is a+b, exact for
// every unsigned counter field.
func sumCounters[T interface{ Delta(T) T }](a, b T) T {
	var zero T
	return a.Delta(zero.Delta(b))
}

// Snapshot reads every component's counters at once, summing the
// per-guest components across all guests (including destroyed ones, whose
// counters are frozen — machine totals never go backwards).
func (m *Machine) Snapshot() Stats {
	s := Stats{
		Accesses:  m.totalAccesses,
		Cache:     m.hier.Snapshot(),
		HostBuddy: m.host.Memory().Buddy().Snapshot(),
	}
	for _, g := range m.guests {
		gs := g.Snapshot()
		s.Walker = sumCounters(s.Walker, gs.Walker)
		s.TLB = sumCounters(s.TLB, gs.TLB)
		s.Guest = sumCounters(s.Guest, gs.Guest)
		s.GuestBuddy = sumCounters(s.GuestBuddy, gs.GuestBuddy)
	}
	return s
}

// GuestReport is the post-run observation of one guest on the host.
type GuestReport struct {
	// Index is the guest's creation-order slot; VMID the host-assigned VM
	// id (monotonic, never reused).
	Index int
	VMID  int
	// Alive is false for guests destroyed mid-run.
	Alive bool
	// Migrated is true for the placeholder slot of a guest that was
	// live-migrated to another machine: its Stats are frozen at departure,
	// and the adopting machine reports the guest's live counters.
	Migrated bool
	// Stats is the guest's counter snapshot.
	Stats GuestStats
	// MappedGuestPages counts guest-physical pages with host backing: the
	// host frames this VM holds, read from its host page table. It is 0
	// for destroyed guests (their frames went back to the host buddy).
	MappedGuestPages uint64
	// Frag aggregates host-PT fragmentation over every process of this
	// guest (zero-valued for destroyed guests).
	Frag metrics.FragReport
}

// Report is the aggregated observation of one machine after a run: the
// whole-run and steady-window counters plus the per-primary task reports
// (including host-PT fragmentation).
type Report struct {
	// Whole holds counters for the entire run; Steady for the §3.3
	// measurement window (after every primary's init boundary).
	Whole  Stats
	Steady Stats
	// Tasks holds one report per primary task, in task order.
	Tasks []TaskReport
	// Guests holds one report per guest in creation order (destroyed
	// guests included, with frozen counters).
	Guests []GuestReport
	// HostFrag aggregates host-PT fragmentation across every live guest —
	// the host-wide view of the §3.2 metric.
	HostFrag metrics.FragReport
}

// guestReport assembles one guest's post-run observation, with each
// task's fragmentation taken from frags (indexed by task index).
func (g *Guest) guestReport(frags []metrics.FragReport) GuestReport {
	vmid := g.frozenVMID
	if g.hostVM != nil {
		vmid = g.hostVM.ID()
	}
	r := GuestReport{
		Index:    g.index,
		VMID:     vmid,
		Alive:    g.alive,
		Migrated: g.migratedOut,
		Stats:    g.Snapshot(),
	}
	if g.alive {
		r.MappedGuestPages = g.hostVM.MappedGuestPages()
		for _, t := range g.tasks {
			r.Frag = metrics.Combine(r.Frag, frags[t.index])
		}
	}
	return r
}

// Observe assembles the machine's aggregated report. It walks page tables
// to compute per-task fragmentation, so it is a post-run call, not a
// hot-path one. Each task's fragmentation is computed once and shared by
// its task report and its guest's report.
func (m *Machine) Observe() Report {
	whole := m.Snapshot()
	steady := whole
	if m.steadySnapTaken {
		steady = whole.Delta(m.statsAtInit)
	}
	frags := make([]metrics.FragReport, len(m.tasks))
	for _, t := range m.tasks {
		frags[t.index] = taskFrag(t)
	}
	rep := Report{Whole: whole, Steady: steady, Tasks: m.report(frags)}
	for _, g := range m.guests {
		gr := g.guestReport(frags)
		rep.Guests = append(rep.Guests, gr)
		if gr.Alive {
			rep.HostFrag = metrics.Combine(rep.HostFrag, gr.Frag)
		}
	}
	return rep
}

// Registry returns a named counter registry over the machine as it stands:
// each call builds a fresh one, so guests booted, destroyed, detached or
// adopted since an earlier call are reflected. Registration order is fixed
// by code order here — never reordered, only appended to — because it is
// the output order of every telemetry encoding. The registry holds read
// closures over the components' own counter fields: the hot loop keeps
// bumping plain struct fields, and counters are only read when a snapshot
// is taken.
//
// A single-guest machine registers the original flat names (walker.*,
// tlb.*, guest.*, buddy.guest.*), keeping historical telemetry byte-
// identical. With N>1 guests each guest's components get a vm<index>.
// prefix, followed by the shared cache.* and buddy.host.* groups.
// Destroyed guests stay registered (their counters are frozen).
// Migrated-out placeholder slots are skipped entirely: their components
// left with the guest, and the adopting machine registers them.
func (m *Machine) Registry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("machine.accesses", func() uint64 { return m.totalAccesses })
	if len(m.guests) == 1 && !m.guests[0].migratedOut {
		g := m.guests[0]
		g.walker.RegisterObs(r, "walker.")
		g.walker.TLB().RegisterObs(r, "tlb.")
		m.hier.RegisterObs(r, "cache.")
		g.kernel.RegisterObs(r, "guest.")
		g.kernel.Memory().Buddy().RegisterObs(r, "buddy.guest.")
	} else {
		for _, g := range m.guests {
			if g.migratedOut {
				continue
			}
			p := fmt.Sprintf("vm%d.", g.index)
			g.walker.RegisterObs(r, p+"walker.")
			g.walker.TLB().RegisterObs(r, p+"tlb.")
			g.kernel.RegisterObs(r, p+"guest.")
			g.kernel.Memory().Buddy().RegisterObs(r, p+"buddy.guest.")
		}
		m.hier.RegisterObs(r, "cache.")
	}
	m.host.Memory().Buddy().RegisterObs(r, "buddy.host.")
	if m.balloon != nil {
		// Balloon counters exist only on balloon-armed machines, so
		// zero-pressure telemetry keeps its historical schema.
		m.balloon.RegisterObs(r, "balloon.")
		for _, g := range m.guests {
			if g.migratedOut {
				continue
			}
			g := g
			p := "guest."
			if len(m.guests) > 1 {
				p = fmt.Sprintf("vm%d.guest.", g.index)
			}
			r.Counter(p+"balloon_pages", g.kernel.BalloonPages)
			r.Counter(p+"balloon_target", g.kernel.BalloonTarget)
		}
	}
	return r
}
