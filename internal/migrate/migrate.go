// Package migrate implements deterministic pre-copy live migration of a
// guest between two simulated machines.
//
// The protocol is the classic one hypervisors build on hardware dirty-page
// tracking (Intel PML — see hostos's dirty log): an initial full copy of
// every backed guest-physical page, then iterative rounds in which the
// guest keeps running on the source while the pages it dirtied since the
// last round are re-shipped, and finally — once a round's dirty set falls
// under a threshold, a round cap is hit, or the guest has nothing left to
// run — a stop-and-copy of the residue with the guest paused. The guest
// then detaches from the source (frames return to the source buddy) and is
// adopted by the destination, whose buddy allocator re-allocated the image
// frame by frame.
//
// Everything is keyed to the machines' deterministic access counts: rounds
// advance the source by Options.RoundAccesses executed accesses, and
// downtime is priced in access-units rather than wall-clock (DESIGN.md
// §10), so a migration is as reproducible as the runs around it.
//
// What the paper's question looks like here: the destination host PT is
// indexed by guest-physical addresses, so whether the migrated guest's
// PTEs pack or scatter on the destination depends only on the gva→gpa
// layout the guest carries with it. A PTEMagnet guest arrives with its
// reservation-packed layout intact; a baseline guest arrives with the
// fragmentation its co-runners inflicted, and re-allocation on a fresh
// host does not heal it.
package migrate

import (
	"context"
	"errors"
	"fmt"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/hostos"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/pagetable"
	"ptemagnet/internal/vm"
)

// ErrDestinationOOM matches (under errors.Is) any migration failure caused
// by the destination host running out of physical memory for the copied
// image.
var ErrDestinationOOM = errors.New("migrate: destination host out of physical memory")

// MigrateError is the typed failure of a migration attempt, wrapping the
// cause with the phase and pre-copy round it struck in. It is
// errors.Is-compatible in both directions: the cause chain unwraps (so
// context.Canceled and hostos.ErrOutOfMemory match), and a destination OOM
// additionally matches ErrDestinationOOM.
type MigrateError struct {
	// Phase names the stage that failed: "validate", "precopy",
	// "stop-and-copy", or "handoff".
	Phase string
	// Round is the pre-copy round the failure struck in (0 = the initial
	// full copy).
	Round int
	// Err is the underlying cause.
	Err error
}

// Error describes the failure.
func (e *MigrateError) Error() string {
	return fmt.Sprintf("migrate: %s failed (round %d): %v", e.Phase, e.Round, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *MigrateError) Unwrap() error { return e.Err }

// Is maps destination-OOM causes onto the ErrDestinationOOM sentinel.
func (e *MigrateError) Is(target error) bool {
	return target == ErrDestinationOOM && errors.Is(e.Err, hostos.ErrOutOfMemory)
}

// Options tune a migration. The zero value selects the documented
// defaults.
type Options struct {
	// RoundAccesses is how many machine-global accesses the source
	// executes between pre-copy rounds — the guest keeps running while its
	// memory is copied, which is the defining property of pre-copy. Zero
	// selects 5000.
	RoundAccesses uint64
	// DirtyLogEntries sizes the source's PML-style dirty-log buffer. Zero
	// selects hostos.DefaultDirtyLogEntries (512, the PML buffer size).
	DirtyLogEntries int
	// OnRound, if non-nil, observes each pre-copy round right after its
	// dirty-log drain, before the round's pages ship: the 1-based round
	// number and the drained page count. Tests use it to cancel
	// mid-round.
	OnRound func(round, dirtyPages int)
	// Faults, if non-nil, injects deterministic migration failures
	// (faults.Plan implements it); nil on the production path.
	Faults FaultInjector
}

// FaultInjector injects migration-phase faults for deterministic fault
// testing. Both methods are consulted once per pre-copy round, right
// after the round's dirty-log drain: a non-nil DestOOM return fails the
// round as a destination allocation failure (the error surfaces wrapped
// in an *hostos.OOMError, so it matches ErrDestinationOOM), and a
// non-nil CancelAtRound return aborts the migration with that cause.
type FaultInjector interface {
	DestOOM(round int) error
	CancelAtRound(round int) error
}

// Pre-copy stop rule.
const (
	// stopThresholdPages ends pre-copy when a round drains at most this
	// many dirty pages: the residue is small enough to ship with the guest
	// paused.
	stopThresholdPages = 64
	// maxRounds caps pre-copy rounds so a write-heavy guest that never
	// converges still migrates (with a bigger stop-and-copy).
	maxRounds = 8
)

func (o Options) withDefaults() Options {
	if o.RoundAccesses == 0 {
		o.RoundAccesses = 5000
	}
	return o
}

// Report is the migration's accounting, the counters a hypervisor's
// migration daemon exports.
type Report struct {
	// Rounds is the number of pre-copy rounds executed after the initial
	// full copy.
	Rounds int
	// PagesCopied is every page shipment: initial copy + re-copies of
	// dirtied pages + the final stop-and-copy.
	PagesCopied uint64
	// PagesInitial is the round-0 full-copy size.
	PagesInitial uint64
	// PagesRedirtied counts shipments of pages the destination already
	// held — the wasted work write-heavy guests inflict on pre-copy.
	PagesRedirtied uint64
	// StopCopyPages is the size of the final paused copy; downtime is
	// proportional to it.
	StopCopyPages uint64
	// DowntimeAccesses is the guest execution forgone while paused, in
	// the simulator's deterministic clock (DESIGN.md §10: the clock is the
	// access count). Shipping one page costs one access, so it equals
	// StopCopyPages.
	DowntimeAccesses uint64
	// PrecopyAccesses is how many accesses the source machine executed
	// during the pre-copy rounds (guest still running).
	PrecopyAccesses uint64
	// LogOverflows counts rounds whose dirty log overflowed and fell back
	// to a full EPT rescan.
	LogOverflows uint64
}

// RegisterObs registers the report's counters on r under prefix, in the
// order the fields are declared. The report is a post-hoc record, not a
// live component, so it has no Snapshot/Delta pair — register it once the
// migration is done, alongside the destination machine's registry.
func (r *Report) RegisterObs(reg *obs.Registry, prefix string) {
	reg.Counter(prefix+"rounds", func() uint64 { return uint64(r.Rounds) })
	reg.Counter(prefix+"pages_copied", func() uint64 { return r.PagesCopied })
	reg.Counter(prefix+"pages_initial", func() uint64 { return r.PagesInitial })
	reg.Counter(prefix+"pages_redirtied", func() uint64 { return r.PagesRedirtied })
	reg.Counter(prefix+"stopcopy_pages", func() uint64 { return r.StopCopyPages })
	reg.Counter(prefix+"downtime_accesses", func() uint64 { return r.DowntimeAccesses })
	reg.Counter(prefix+"precopy_accesses", func() uint64 { return r.PrecopyAccesses })
	reg.Counter(prefix+"log_overflows", func() uint64 { return r.LogOverflows })
}

// MigrateCtx live-migrates src onto dst with pre-copy semantics and
// returns the migration's accounting. On success src is a live guest of
// dst (same kernel, same walker with cumulative counters, same tasks,
// vCPUs re-pinned) and its old machine keeps a frozen placeholder in its
// Guests() slot. On failure the returned error is a *MigrateError; unless
// the failure struck in the final hand-off, the guest is left running
// undisturbed on the source and the half-built destination VM is torn down
// (its frames coalesce back into dst's buddy allocator), so a failed or
// cancelled migration can simply be retried.
//
// ctx cancellation is honored between pre-copy rounds and between a
// round's drain and its copy — never inside a copy, so the destination
// page table is always consistent at the failure point.
func MigrateCtx(ctx context.Context, src *vm.Guest, dst *vm.Machine, opts Options) (Report, error) {
	opts = opts.withDefaults()
	var rep Report
	fail := func(phase string, round int, err error) (Report, error) {
		return rep, &MigrateError{Phase: phase, Round: round, Err: err}
	}
	if src == nil || !src.Alive() {
		return fail("validate", 0, errors.New("source guest is not alive"))
	}
	srcM := src.Machine()
	if srcM == nil {
		return fail("validate", 0, errors.New("source guest is detached"))
	}
	if srcM == dst {
		return fail("validate", 0, errors.New("source and destination are the same machine"))
	}
	// Frozen registries make the hand-off impossible; refuse before
	// touching any state so the failure is always clean.
	if srcM.RegistryBuilt() || dst.RegistryBuilt() {
		return fail("validate", 0, errors.New("a machine with a built counter registry cannot migrate guests; build registries after migration"))
	}
	srcVM := src.HostVM()
	dstVM, err := dst.Host().CreateVMWithLevels(srcVM.GuestMemBytes(), srcVM.PageTable().Levels())
	if err != nil {
		return fail("validate", 0, err)
	}
	// abort tears down the half-built destination VM and stops write
	// tracking, leaving both machines exactly as they were.
	abort := func() {
		srcVM.DisableDirtyLogging()
		dst.Host().DestroyVM(dstVM)
	}

	// ship copies one guest-physical page to the destination. Re-shipping
	// a page the destination already holds rewrites contents, not the
	// mapping — it costs a copy, not a frame.
	ship := func(gpa arch.PhysAddr) error {
		if dstVM.Mapped(gpa) {
			rep.PagesRedirtied++
			rep.PagesCopied++
			return nil
		}
		if err := dstVM.MapMigratedPage(gpa); err != nil {
			return err
		}
		rep.PagesCopied++
		return nil
	}

	// Round 0: full copy of every page with host backing, in ascending
	// guest-physical order, with write tracking armed first so no store is
	// missed between the copy and the first round.
	srcVM.EnableDirtyLogging(opts.DirtyLogEntries)
	var shipErr error
	srcVM.PageTable().ForEachMapped(func(va arch.VirtAddr, _ arch.PhysAddr, _ pagetable.Flags) bool {
		shipErr = ship(arch.PhysAddr(va))
		return shipErr == nil
	})
	if shipErr != nil {
		abort()
		return fail("precopy", 0, shipErr)
	}
	rep.PagesInitial = rep.PagesCopied

	// Iterative pre-copy: run, drain, re-ship; stop when the dirty set is
	// small, the round budget is spent, or the guest has no runnable work
	// left (then the dirty set can only shrink to nothing).
	var residue []arch.PhysAddr
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			abort()
			return fail("precopy", round, err)
		}
		if srcM.PendingPrimaries() > 0 {
			before := srcM.TotalAccesses()
			if err := srcM.RunWith(ctx, vm.WithStopAtAccesses(before+opts.RoundAccesses)); err != nil {
				abort()
				return fail("precopy", round, err)
			}
			rep.PrecopyAccesses += srcM.TotalAccesses() - before
		}
		dirty, rescan := srcVM.DrainDirtyLog()
		if rescan {
			rep.LogOverflows++
		}
		rep.Rounds = round
		if opts.OnRound != nil {
			opts.OnRound(round, len(dirty))
		}
		if opts.Faults != nil {
			// Injected destination OOM wears the same OOMError the organic
			// path produces, so ErrDestinationOOM (and, through Unwrap,
			// the injected-fault root) match identically either way.
			if cause := opts.Faults.DestOOM(round); cause != nil {
				abort()
				return fail("precopy", round, &hostos.OOMError{VM: dstVM.ID(), NeedPages: 1, Err: cause})
			}
			if cause := opts.Faults.CancelAtRound(round); cause != nil {
				abort()
				return fail("precopy", round, cause)
			}
		}
		if err := ctx.Err(); err != nil {
			abort()
			return fail("precopy", round, err)
		}
		if len(dirty) <= stopThresholdPages || round >= maxRounds || srcM.PendingPrimaries() == 0 {
			residue = dirty
			break
		}
		for _, gpa := range dirty {
			if err := ship(gpa); err != nil {
				abort()
				return fail("precopy", round, err)
			}
		}
	}

	// Stop-and-copy: the guest is paused (the source simply does not run)
	// while the residue ships, plus any page that gained host backing
	// since its copy round without ever being written — read-faulted pages
	// never enter the dirty log, so a final ascending sweep catches them.
	copiedBefore := rep.PagesCopied
	for _, gpa := range residue {
		if err := ship(gpa); err != nil {
			abort()
			return fail("stop-and-copy", rep.Rounds, err)
		}
	}
	srcVM.PageTable().ForEachMapped(func(va arch.VirtAddr, _ arch.PhysAddr, _ pagetable.Flags) bool {
		if !dstVM.Mapped(arch.PhysAddr(va)) {
			shipErr = ship(arch.PhysAddr(va))
		}
		return shipErr == nil
	})
	if shipErr != nil {
		abort()
		return fail("stop-and-copy", rep.Rounds, shipErr)
	}
	rep.StopCopyPages = rep.PagesCopied - copiedBefore
	rep.DowntimeAccesses = rep.StopCopyPages
	srcVM.DisableDirtyLogging()

	// Hand-off: detach from the source (frames coalesce back into the
	// source buddy — the physmem owner transfer), adopt on the destination
	// (the walker rebind flushes every TLB and walk-cache dimension).
	if err := srcM.DetachGuest(src); err != nil {
		abort()
		return fail("handoff", rep.Rounds, err)
	}
	if err := dst.AttachGuest(src, dstVM); err != nil {
		// The source VM is already destroyed; the guest cannot be
		// restored. This only fires on caller contract violations
		// (e.g. a frozen destination registry), checked before any state
		// was touched on well-formed calls.
		return fail("handoff", rep.Rounds, err)
	}
	return rep, nil
}
