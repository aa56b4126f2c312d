// Package faults is the deterministic fault-injection layer: a Config
// describes which fault classes to provoke and how often, and a Plan
// materializes that description for one retry attempt as a seed-derived,
// event-count-keyed schedule. Plans are injected at existing choke points
// — the buddy allocator's free-list scan, the host kernel's fault-time
// frame allocation, the dirty-log append, and the migration pre-copy loop
// — through small hook interfaces declared by the consuming packages, so
// the zero-plan hot path costs one nil check per site and stays
// byte-identical to a build without injection.
//
// Determinism argument (DESIGN.md §11): every firing decision is a pure
// function of (Config, attempt, site-local event count). The event counts
// — buddy allocations, host faults, dirty-log transitions, pre-copy
// rounds — advance only with simulated work, which the scheduler orders
// identically for any engine worker count, so the same plan injects the
// same faults at the same simulated instants in every run. The schedules
// themselves come from a rand.Rand seeded via engine.DeriveSeed, never
// from wall-clock or execution order.
//
// Recovery is keyed to the attempt index (engine.AttemptFrom): a Config
// with FailAttempts=k produces active plans for attempts 0..k-1 and empty
// plans from attempt k on, so a retried scenario replays on a genuinely
// clean machine — the foundation of the retry-then-succeed ≡
// never-faulted equivalence the chaos tests pin.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/obs"
)

// Site names an injection choke point.
type Site uint8

const (
	// SiteBuddyAlloc fails a guest buddy allocation (transient: the
	// guest OS absorbs it through reclaim-and-retry or CA fallback).
	SiteBuddyAlloc Site = iota
	// SiteHostOOM fails a host-kernel frame allocation during fault
	// handling, surfacing as a *hostos.OOMError.
	SiteHostOOM
	// SiteDirtyLog drops a dirty-log entry and latches the overflow
	// flag, forcing the next drain onto the full-rescan path.
	SiteDirtyLog
	// SiteMigrateDestOOM fails a destination allocation at a chosen
	// pre-copy round, surfacing as migrate.ErrDestinationOOM.
	SiteMigrateDestOOM
	// SiteMigrateCancel aborts a migration at a chosen pre-copy round.
	SiteMigrateCancel

	numSites
)

// String names the site for error text and counter labels.
func (s Site) String() string {
	switch s {
	case SiteBuddyAlloc:
		return "buddy-alloc"
	case SiteHostOOM:
		return "host-oom"
	case SiteDirtyLog:
		return "dirty-log"
	case SiteMigrateDestOOM:
		return "migrate-dest-oom"
	case SiteMigrateCancel:
		return "migrate-cancel"
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// ErrInjected is the root of the injected-fault taxonomy: every error a
// Plan produces — directly or wrapped inside *hostos.OOMError or
// *migrate.MigrateError — satisfies errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faults: injected fault")

// Error is a typed injected fault. It matches ErrInjected via Is, so
// wrapping layers (OOMError, MigrateError) keep it reachable as long as
// they expose Unwrap.
type Error struct {
	// Site is the choke point that fired.
	Site Site
	// Seq is the site-local event count at which the fault fired
	// (allocation number, fault number, or pre-copy round).
	Seq uint64
	// Transient marks faults a retry with a later attempt index is
	// expected to clear.
	Transient bool
}

// Error renders the fault.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s fault (event %d)", e.Site, e.Seq)
}

// Is makes every injected fault errors.Is-reachable from ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// IsTransient reports whether err carries a transient injected fault —
// the classifier engine.RetryPolicy uses to decide whether another
// attempt can help.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Transient
}

// Config describes a fault campaign. The zero value injects nothing.
// Schedules derive from Seed alone, so two configs with equal fields
// produce identical plans.
type Config struct {
	// Seed drives schedule placement (via engine.DeriveSeed, per
	// attempt). Independent of the workload seed.
	Seed int64
	// FailAttempts is the number of retry attempts that see an active
	// plan; attempts at or beyond it get an empty plan and run clean.
	// Zero means 1 (fault the first attempt only).
	FailAttempts int

	// BuddyFails is the number of guest buddy allocations to fail,
	// spread over the first BuddyFailSpan allocations (0 span = 2048).
	BuddyFails    int
	BuddyFailSpan uint64

	// HostOOMs is the number of host fault-time frame allocations to
	// fail, spread over the first HostOOMSpan host faults (0 = 2048).
	HostOOMs    int
	HostOOMSpan uint64

	// DirtyLogOverflowEvery forces a dirty-log overflow on every Nth
	// logged clear→set transition (0 = never).
	DirtyLogOverflowEvery uint64

	// MigrateDestOOMRound injects a destination OOM at this 1-based
	// pre-copy round (0 = never); MigrateCancelRound aborts the
	// migration at this round (0 = never).
	MigrateDestOOMRound int
	MigrateCancelRound  int
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.BuddyFails > 0 || c.HostOOMs > 0 || c.DirtyLogOverflowEvery > 0 ||
		c.MigrateDestOOMRound > 0 || c.MigrateCancelRound > 0
}

// defaultSpan spreads count-scheduled faults when the config leaves the
// span unset.
const defaultSpan = 2048

// schedule fires at a sorted list of 1-based site-local event counts.
type schedule struct {
	at   []uint64
	seq  uint64
	next int
}

// tick advances the site-local event count and reports whether this
// event is scheduled to fault.
func (s *schedule) tick() bool {
	s.seq++
	if s.next < len(s.at) && s.seq == s.at[s.next] {
		s.next++
		return true
	}
	return false
}

// minGap is the minimum distance between two scheduled event counts.
// Recovery paths re-enter the same choke point within a few events of an
// injected failure (reclaim-then-retry is one extra allocation, the
// reservation fallback chain a handful), so adjacent scheduled faults
// would turn one transient injection into an unrecoverable failure. A
// gap of 8 keeps every in-run recovery path clear of the next fault.
const minGap = 8

// newSchedule picks n event counts in [1, span] from rng, each at least
// minGap apart (n is clamped to what the span can hold). Gap enforcement
// is by construction, not rejection: sample n distinct points in the
// span shrunk by the total gap slack, sort them, then push the i-th
// point right by i*(minGap-1) — always terminates, and the mapping is a
// bijection so placement stays uniform.
func newSchedule(rng *rand.Rand, n int, span uint64) schedule {
	if n <= 0 {
		return schedule{}
	}
	if span == 0 {
		span = defaultSpan
	}
	if maxN := int((span + minGap - 1) / minGap); n > maxN {
		n = maxN
	}
	reduced := span - uint64(n-1)*(minGap-1)
	picked := make(map[uint64]struct{}, n)
	at := make([]uint64, 0, n)
	for len(at) < n {
		v := uint64(rng.Int63n(int64(reduced))) + 1
		if _, dup := picked[v]; dup {
			continue
		}
		picked[v] = struct{}{}
		at = append(at, v)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	for i := range at {
		at[i] += uint64(i) * (minGap - 1)
	}
	return schedule{at: at}
}

// Plan is one attempt's materialized fault schedule. A nil or inactive
// plan injects nothing; all hook methods are nil-receiver-safe so a
// typed-nil *Plan stored in a hook interface stays inert. Plans are not
// goroutine-safe — one plan serves one machine run, which is
// single-threaded by construction.
type Plan struct {
	cfg     Config
	attempt int
	active  bool

	buddy    schedule
	hostOOM  schedule
	dirtySeq uint64

	injected [numSites]uint64
	// absorbedHostOOMs counts injected host OOMs the host absorbed in-run
	// through its pressure reliever (balloon relief + retry) instead of
	// failing the attempt — the degradation outcome, distinct from
	// recovery by engine retry.
	absorbedHostOOMs uint64
}

// NewPlan materializes cfg for one retry attempt (0 = first run).
// Attempts at or beyond cfg.FailAttempts yield an inactive plan, so
// retried scenarios replay clean.
func NewPlan(cfg Config, attempt int) *Plan {
	p := &Plan{cfg: cfg, attempt: attempt}
	failAttempts := cfg.FailAttempts
	if failAttempts <= 0 {
		failAttempts = 1
	}
	if attempt >= failAttempts || !cfg.Enabled() {
		return p
	}
	p.active = true
	rng := rand.New(rand.NewSource(engine.DeriveSeed(cfg.Seed, fmt.Sprintf("faults/attempt/%d", attempt))))
	p.buddy = newSchedule(rng, cfg.BuddyFails, cfg.BuddyFailSpan)
	p.hostOOM = newSchedule(rng, cfg.HostOOMs, cfg.HostOOMSpan)
	return p
}

// Attempt returns the retry attempt the plan was materialized for.
func (p *Plan) Attempt() int {
	if p == nil {
		return 0
	}
	return p.attempt
}

// Active reports whether the plan can inject anything.
func (p *Plan) Active() bool { return p != nil && p.active }

// Injected returns the number of faults fired at the given site so far.
func (p *Plan) Injected(s Site) uint64 {
	if p == nil || s >= numSites {
		return 0
	}
	return p.injected[s]
}

// InjectedTotal returns the number of faults fired across all sites.
func (p *Plan) InjectedTotal() uint64 {
	if p == nil {
		return 0
	}
	var total uint64
	for _, n := range p.injected {
		total += n
	}
	return total
}

// FailAlloc implements guest memory's fault hook (physmem.AllocHook):
// consulted once per user or reserved-frame allocation, firing on the
// scheduled allocation counts.
func (p *Plan) FailAlloc(order int) bool {
	if p == nil || !p.active {
		return false
	}
	if p.buddy.tick() {
		p.injected[SiteBuddyAlloc]++
		return true
	}
	return false
}

// InjectHostOOM implements the host kernel's fault hook
// (hostos.OOMInjector): consulted once per fault-time frame allocation,
// returning a transient injected error on the scheduled fault counts.
func (p *Plan) InjectHostOOM() error {
	if p == nil || !p.active {
		return nil
	}
	if p.hostOOM.tick() {
		p.injected[SiteHostOOM]++
		return &Error{Site: SiteHostOOM, Seq: p.hostOOM.seq, Transient: true}
	}
	return nil
}

// ForceDirtyLogOverflow implements the dirty-log fault hook
// (hostos.DirtyLogInjector): consulted once per logged clear→set
// transition, forcing an overflow every cfg.DirtyLogOverflowEvery
// transitions.
func (p *Plan) ForceDirtyLogOverflow() bool {
	if p == nil || !p.active || p.cfg.DirtyLogOverflowEvery == 0 {
		return false
	}
	p.dirtySeq++
	if p.dirtySeq%p.cfg.DirtyLogOverflowEvery == 0 {
		p.injected[SiteDirtyLog]++
		return true
	}
	return false
}

// DestOOM implements half of migrate's fault hook (migrate.FaultInjector):
// a non-nil return injects a destination allocation failure at the given
// 1-based pre-copy round.
func (p *Plan) DestOOM(round int) error {
	if p == nil || !p.active || p.cfg.MigrateDestOOMRound == 0 || round != p.cfg.MigrateDestOOMRound {
		return nil
	}
	p.injected[SiteMigrateDestOOM]++
	return &Error{Site: SiteMigrateDestOOM, Seq: uint64(round), Transient: true}
}

// CancelAtRound implements the other half of migrate.FaultInjector: a
// non-nil return aborts the migration at the given pre-copy round.
func (p *Plan) CancelAtRound(round int) error {
	if p == nil || !p.active || p.cfg.MigrateCancelRound == 0 || round != p.cfg.MigrateCancelRound {
		return nil
	}
	p.injected[SiteMigrateCancel]++
	return &Error{Site: SiteMigrateCancel, Seq: uint64(round), Transient: true}
}

// NoteAbsorbedHostOOM implements the rest of hostos.OOMInjector: it
// records that an injected host OOM was absorbed in-run by the host's
// pressure reliever.
func (p *Plan) NoteAbsorbedHostOOM() {
	if p == nil {
		return
	}
	p.absorbedHostOOMs++
}

// AbsorbedHostOOMs returns the number of injected host OOMs absorbed by
// pressure relief.
func (p *Plan) AbsorbedHostOOMs() uint64 {
	if p == nil {
		return 0
	}
	return p.absorbedHostOOMs
}

// RegisterObs registers the plan's injection counters on r under prefix
// (conventionally "faults."). Registered only by fault-aware runs —
// zero-plan telemetry keeps its pre-injection schema.
func (p *Plan) RegisterObs(r *obs.Registry, prefix string) {
	r.Counter(prefix+"active", func() uint64 {
		if p.Active() {
			return 1
		}
		return 0
	})
	r.Counter(prefix+"injected_total", p.InjectedTotal)
	r.Counter(prefix+"buddy_failures_injected", func() uint64 { return p.Injected(SiteBuddyAlloc) })
	r.Counter(prefix+"host_ooms_injected", func() uint64 { return p.Injected(SiteHostOOM) })
	r.Counter(prefix+"host_ooms_absorbed", p.AbsorbedHostOOMs)
	r.Counter(prefix+"dirtylog_overflows_forced", func() uint64 { return p.Injected(SiteDirtyLog) })
	r.Counter(prefix+"migrate_dest_ooms_injected", func() uint64 { return p.Injected(SiteMigrateDestOOM) })
	r.Counter(prefix+"migrate_cancels_injected", func() uint64 { return p.Injected(SiteMigrateCancel) })
}
