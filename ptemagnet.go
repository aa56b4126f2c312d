// Package ptemagnet is a complete, simulation-backed reproduction of
// "PTEMagnet: Fine-Grained Physical Memory Reservation for Faster Page
// Walks in Public Clouds" (Margaritov, Ustiugov, Shahab, Grot — ASPLOS
// 2021, DOI 10.1145/3445814.3446704).
//
// The paper's contribution is a guest-kernel memory allocator that prevents
// guest-physical fragmentation under VM colocation by eagerly reserving
// aligned eight-page groups on the first page fault to each 32KB virtual
// region, which packs the corresponding *host* page-table entries into
// single cache blocks and shortens nested (2D) page walks.
//
// This library implements that allocator in full — the Page Reservation
// Table (PaRT), the reservation/reclamation life cycle, fork semantics, and
// the cgroup-style enable threshold — together with every substrate the
// paper's evaluation depends on, built from scratch: a Linux-style buddy
// allocator, guest and host kernels with demand paging, x86-64 four-level
// page tables materialized in simulated physical memory, a nested page
// walker with TLBs and page-walk caches, a cache hierarchy, and synthetic
// stand-ins for the paper's benchmarks and co-runners.
//
// Three entry levels, lowest to highest:
//
//   - NewPaRT gives the bare reservation table, the paper's §4 data
//     structure, usable against any frame allocator.
//   - NewHostMachine assembles the full simulated platform (host + VMs +
//     guest kernels + caches + nested walkers) for custom experiments.
//   - RunExperiment reproduces the paper's tables and figures by name
//     (see EXPERIMENTS.md); RunScenarioCtx runs one scenario.
//
// See examples/ for runnable programs and DESIGN.md for the system
// inventory.
package ptemagnet

import (
	"context"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/balloon"
	"ptemagnet/internal/cache"
	"ptemagnet/internal/core"
	"ptemagnet/internal/engine"
	"ptemagnet/internal/faults"
	"ptemagnet/internal/guestos"
	"ptemagnet/internal/migrate"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/vm"
	"ptemagnet/internal/workload"
)

// Dimension distinguishes the guest and host page tables of a nested walk.
type Dimension = nested.Dimension

// Walk dimensions.
const (
	// DimGuest is the guest page table.
	DimGuest = nested.DimGuest
	// DimHost is the host page table — the one PTEMagnet defragments.
	DimHost = nested.DimHost
)

// Address and geometry types.
type (
	// VirtAddr is a guest-virtual address.
	VirtAddr = arch.VirtAddr
	// PhysAddr is a physical address (guest- or host-physical by context).
	PhysAddr = arch.PhysAddr
)

// Geometry constants re-exported for callers of the low-level API.
const (
	// PageSize is the base page size (4KB).
	PageSize = arch.PageSize
	// GroupPages is the paper's reservation granularity: eight pages,
	// whose leaf PTEs fill exactly one 64-byte cache block.
	GroupPages = arch.GroupPages
	// GroupBytes is the reservation span (32KB).
	GroupBytes = arch.GroupBytes
)

// The paper's primary contribution: the Page Reservation Table.
type (
	// PaRT is the per-process Page Reservation Table (§4.2).
	PaRT = core.PaRT
	// PaRTConfig parameterizes group size and locking granularity.
	PaRTConfig = core.Config
	// FaultResult describes how a PaRT served a fault.
	FaultResult = core.FaultResult
)

// PaRT fault outcomes.
const (
	// FaultNewReservation: a fresh group was reserved.
	FaultNewReservation = core.FaultNewReservation
	// FaultReservationHit: the page came from a live reservation.
	FaultReservationHit = core.FaultReservationHit
	// FaultNoMemory: group allocation failed; fall back to single pages.
	FaultNoMemory = core.FaultNoMemory
	// FaultClaimed: a forked child already claimed the page
	// (PaRT.ClaimFromParent); fall back to single pages.
	FaultClaimed = core.FaultClaimed
)

// ConfigError is the typed validation failure returned when a PaRTConfig,
// HostMachineConfig or GuestConfig is rejected (PaRTConfig.Validate,
// HostMachineConfig.Validate, NewPaRT, NewHostMachine, NewGuestKernel).
// Match it with errors.As.
type ConfigError = core.ConfigError

// NewPaRT creates an empty Page Reservation Table. An invalid configuration
// (e.g. a GroupPages that is not a power of two) is rejected with a
// *ConfigError; use PaRTConfig.Validate to check a configuration up front.
func NewPaRT(cfg PaRTConfig) (*PaRT, error) { return core.New(cfg) }

// DefaultPaRTConfig returns the paper's design point: 8-page groups,
// fine-grained per-node locking.
func DefaultPaRTConfig() PaRTConfig { return core.DefaultConfig() }

// Guest kernel (the layer the paper patches).
type (
	// GuestKernel simulates the guest Linux VM subsystem.
	GuestKernel = guestos.Kernel
	// GuestConfig configures it, including the allocator policy.
	GuestConfig = guestos.Config
	// AllocPolicy selects the fault-time allocator.
	AllocPolicy = guestos.AllocPolicy
)

// Allocator policies.
const (
	// PolicyDefault is the stock Linux page-at-a-time buddy path.
	PolicyDefault = guestos.PolicyDefault
	// PolicyPTEMagnet is the paper's reservation-based path.
	PolicyPTEMagnet = guestos.PolicyPTEMagnet
)

// NewGuestKernel boots a guest kernel. A MemBytes the guest-physical
// memory cannot have (zero, not a whole number of pages, fewer than two
// pages, or beyond 16 TiB) is rejected with a *ConfigError.
func NewGuestKernel(cfg GuestConfig) (*GuestKernel, error) {
	if err := vm.CheckMemBytes("MemBytes", cfg.MemBytes); err != nil {
		return nil, err
	}
	return guestos.NewKernel(cfg), nil
}

// Full platform.
type (
	// Machine is the assembled host + VMs + guests + caches + walkers.
	Machine = vm.Machine
	// MachineRunOpt configures a Machine.RunWith (functional options such
	// as WithStopCorunnersAtInit).
	MachineRunOpt = vm.RunOpt
	// TaskReport is the per-benchmark measurement.
	TaskReport = vm.TaskReport
	// Role distinguishes measured primaries from background co-runners.
	Role = vm.Role
	// HostMachineConfig describes a multi-tenant platform: shared host
	// hardware plus one TenantConfig per VM packed onto it.
	HostMachineConfig = vm.HostConfig
	// TenantConfig describes one VM on a multi-tenant host (size and
	// guest allocator policy). The name differs from the internal
	// vm.GuestConfig because GuestConfig here already names the guest
	// kernel's own configuration.
	TenantConfig = vm.GuestConfig
	// Guest is one tenant VM's stack (kernel, walker, tasks) on a shared
	// host machine.
	Guest = vm.Guest
)

// WithStopCorunnersAtInit stops co-runners once primaries finish their
// init phase (a Machine.RunWith option).
var WithStopCorunnersAtInit = vm.WithStopCorunnersAtInit

// Task roles.
const (
	// RolePrimary marks a measured benchmark.
	RolePrimary = vm.RolePrimary
	// RoleCorunner marks a background co-runner.
	RoleCorunner = vm.RoleCorunner
)

// CacheConfig describes the simulated cache hierarchy.
type CacheConfig = cache.Config

// DefaultCacheConfig returns the Broadwell-like hierarchy used by default.
func DefaultCacheConfig(numCPUs int) CacheConfig { return cache.DefaultConfig(numCPUs) }

// NewHostMachine assembles a multi-tenant platform: one shared host
// running every guest in cfg.Guests.
func NewHostMachine(cfg HostMachineConfig) (*Machine, error) { return vm.NewHost(cfg) }

// Workloads.
type (
	// Program is a deterministic access-stream generator. Implement it to
	// run your own workload on the machine (see examples/kvstore).
	Program = workload.Program
	// Env is the system interface a Program sees (mmap/free).
	Env = workload.Env
	// Access is one memory reference emitted by a Program.
	Access = workload.Access
	// GraphConfig sizes the GPOP graph-kernel stand-ins.
	GraphConfig = workload.GraphConfig
	// SpecConfig sizes the SPEC'17 stand-ins.
	SpecConfig = workload.SpecConfig
	// CorunnerConfig sizes the co-runner stand-ins.
	CorunnerConfig = workload.CorunnerConfig
)

// Workload constructors (the paper's Table 3).
var (
	NewPagerank = workload.NewPagerank
	NewGCC      = workload.NewGCC
	NewStressNG = workload.NewStressNG
)

// Experiment harness.
type (
	// Scenario is one measured configuration (benchmark × co-runners ×
	// policy).
	Scenario = sim.Scenario
	// ScenarioResult is everything measured in one run. Its Report field
	// is the aggregated observation of the machine.
	ScenarioResult = sim.Result
	// Scale sets experiment sizing.
	Scale = sim.Scale
)

// RunCollector accumulates the per-scenario telemetry records (RunRecords)
// of concurrent scenarios.
type RunCollector = obs.Collector

// WithRunCollector returns a context that makes every scenario executed
// under it (RunScenarioCtx, RunExperiment) emit a RunRecord to c.
func WithRunCollector(ctx context.Context, c *RunCollector) context.Context {
	return obs.WithCollector(ctx, c)
}

// RunScenarioCtx executes one scenario on a freshly assembled machine under
// a cancellable context.
func RunScenarioCtx(ctx context.Context, s Scenario) (ScenarioResult, error) {
	return sim.RunCtx(ctx, s)
}

// RunScenarioPairCtx runs a scenario under the default policy and under
// PTEMagnet, returning (default, ptemagnet).
func RunScenarioPairCtx(ctx context.Context, s Scenario) (ScenarioResult, ScenarioResult, error) {
	return sim.RunPairCtx(ctx, s)
}

// Engine executes scenario sets through a bounded worker pool with
// deterministic (worker-count-independent) reduced output; see NewEngine.
type Engine = engine.Engine

// NewEngine returns an engine with the given worker count (<= 0 means
// GOMAXPROCS). WithEngine(nil) behaves like NewEngine(0).
func NewEngine(workers int) *Engine { return engine.New(workers) }

// DefaultScale returns the calibrated experiment sizing (1/256 of the
// paper's 16GB-dataset setup); QuickScale a fast variant for smoke tests.
func DefaultScale() Scale { return sim.DefaultScale() }

// QuickScale returns a reduced sizing for fast runs.
func QuickScale() Scale { return sim.QuickScale() }

// Experiment result types: RunExperiment returns the named experiment's
// result as an ExperimentResult; type-assert it to read the fields
// (r.(Table1Result), r.(SuiteResult), ...).
type (
	// Table1Result compares colocated vs standalone execution (§3.3).
	Table1Result = sim.Table1Result
	// SuiteResult covers all benchmarks under one co-runner set (§6.1).
	SuiteResult = sim.SuiteResult
	// Table4Result holds the §6.3 hardware-metric comparison.
	Table4Result = sim.Table4Result
	// Sec62Result holds the §6.2 reservation-waste study.
	Sec62Result = sim.Sec62Result
	// Sec64Result holds the §6.4 allocation-latency microbenchmark.
	Sec64Result = sim.Sec64Result
	// GranularityResult holds the §4 GroupPages sweep.
	GranularityResult = sim.GranularityResult
	// ReclaimResult holds the §4.3 reclaim-watermark sweep.
	ReclaimResult = sim.ReclaimResult
	// CAPagingResult compares CA paging against PTEMagnet.
	CAPagingResult = sim.CAPagingResult
	// THPResult compares transparent huge pages against PTEMagnet.
	THPResult = sim.THPResult
	// FiveLevelResult measures PTEMagnet under five-level paging (§2.5).
	FiveLevelResult = sim.FiveLevelResult
	// LowPressureResult verifies overhead freedom at low TLB pressure.
	LowPressureResult = sim.LowPressureResult
	// LockingResult holds the §4.2 locking-granularity ablation.
	LockingResult = sim.LockingResult
	// ThresholdResult demonstrates the §4.4 enable threshold.
	ThresholdResult = sim.ThresholdResult
	// MigrationRunResult is one migration scenario's measurement.
	MigrationRunResult = sim.MigrationRunResult
	// MigrationResult covers the -exp migration sweep.
	MigrationResult = sim.MigrationResult
	// ChaosRunResult is one chaos scenario's outcome.
	ChaosRunResult = sim.ChaosRunResult
	// ChaosResult covers the -exp chaos sweep.
	ChaosResult = sim.ChaosResult
	// OvercommitRunResult is one overcommit scenario's measurement.
	OvercommitRunResult = sim.OvercommitRunResult
	// OvercommitResult covers the -exp overcommit sweep.
	OvercommitResult = sim.OvercommitResult
)

// Experiment registry: every experiment is registered under a canonical
// name, and RunExperiment is the one way to run it (cmd/experiments runs
// entirely through it).
type (
	// ExperimentInfo describes one registered experiment (name, display
	// title, selector tags, paper notes).
	ExperimentInfo = sim.ExperimentInfo
	// ExperimentResult is the reduced output of one experiment; render it
	// with String.
	ExperimentResult = sim.ExperimentResult
	// ExperimentRunOpt configures a RunExperiment call (functional
	// options: WithScale, WithSeed, WithEngine, WithVMCounts,
	// WithFaultPlan, WithRetry, WithCollector).
	ExperimentRunOpt = sim.RunOpt
)

// Experiments lists every registered experiment in execution order.
var Experiments = sim.Experiments

// Experiment run options (RunExperiment).
var (
	// WithScale selects the sweep sizing (default DefaultScale()).
	WithScale = sim.WithScale
	// WithSeed sets the base simulation seed (default 11).
	WithSeed = sim.WithSeed
	// WithEngine runs the experiment through a configured Engine.
	WithEngine = sim.WithEngine
	// WithVMCounts narrows the multitenant sweep.
	WithVMCounts = sim.WithVMCounts
	// WithFaultPlan sets the fault campaign for fault-aware experiments
	// (the chaos sweep).
	WithFaultPlan = sim.WithFaultPlan
	// WithRetry sets the per-scenario retry policy for fault-aware
	// experiments.
	WithRetry = sim.WithRetry
	// WithCollector attaches a RunCollector to the run, capturing one
	// RunRecord per executed scenario.
	WithCollector = sim.WithCollector
)

// RunExperiment runs one registered experiment by canonical name,
// configured by functional options; omitted options take the documented
// defaults. Even on error the returned result may be non-nil, carrying
// the partial output the engine completed before failing.
func RunExperiment(ctx context.Context, name string, opts ...ExperimentRunOpt) (ExperimentResult, error) {
	return sim.RunExperiment(ctx, name, opts...)
}

// Live migration: move a Guest between Machines with pre-copy semantics
// over the host's PML-style dirty-page log (DESIGN.md §10).
type (
	// MigrateOptions tunes the pre-copy protocol (round length and
	// dirty-log sizing); the stop-and-copy rule is fixed.
	MigrateOptions = migrate.Options
	// MigrationReport counts what one migration did: rounds, page traffic,
	// downtime in access-units.
	MigrationReport = migrate.Report
)

// ErrDestinationOOM reports that the destination host ran out of physical
// memory while receiving the guest image; the migration rolled back.
var ErrDestinationOOM = migrate.ErrDestinationOOM

// MigrateGuestCtx live-migrates a guest onto a destination machine under a
// cancellable context.
var MigrateGuestCtx = migrate.MigrateCtx

// Deterministic fault injection & recovery (DESIGN.md §11): seed-derived
// fault plans armed on a Machine's allocation, host-fault, dirty-log and
// migration choke points, with per-scenario retry in the engine.
type (
	// FaultConfig declares a deterministic fault campaign (what to
	// inject, how often, and for how many attempts).
	FaultConfig = faults.Config
	// RetryPolicy is the engine's per-scenario retry contract (max
	// attempts plus a retryable-error classifier).
	RetryPolicy = engine.RetryPolicy
)

// ErrFaultInjected is the sentinel wrapped by every injected fault.
var ErrFaultInjected = faults.ErrInjected

// IsFaultTransient reports whether err is a transient injected fault (the
// chaos sweep's default retry classifier).
var IsFaultTransient = faults.IsTransient

// BalloonConfig arms the host's overcommit pressure controller
// (HostMachineConfig.Balloon; DESIGN.md §12): a balloon with fixed 1/16
// and 1/8 free-frame watermarks that relieves host pressure by inflating
// per-guest balloon targets, driving the guest reclaim daemon to break
// PTEMagnet reservations and return cold frames to the host buddy
// allocator. Enabled is its only field.
type BalloonConfig = balloon.Config
