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
//   - NewMachine assembles the full simulated platform (host + VM + guest
//     kernel + caches + nested walker) for custom experiments.
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
	"ptemagnet/internal/metrics"
	"ptemagnet/internal/migrate"
	"ptemagnet/internal/nested"
	"ptemagnet/internal/obs"
	"ptemagnet/internal/sim"
	"ptemagnet/internal/trace"
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
	// Reservation is one live eight-page reservation.
	Reservation = core.Reservation
	// PaRTStats counts reservation life-cycle events.
	PaRTStats = core.Stats
	// FaultResult describes how a PaRT served a fault.
	FaultResult = core.FaultResult
)

// PaRT fault outcomes.
const (
	// FaultNewReservation: a fresh group was reserved.
	FaultNewReservation = core.FaultNewReservation
	// FaultReservationHit: served from an existing reservation with no
	// buddy-allocator call.
	FaultReservationHit = core.FaultReservationHit
	// FaultNoMemory: group allocation failed; fall back to single pages.
	FaultNoMemory = core.FaultNoMemory
)

// ConfigError is the typed validation failure returned when a PaRTConfig or
// MachineConfig is rejected (PaRTConfig.Validate, MachineConfig.Validate,
// NewPaRT, NewMachine). Match it with errors.As.
type ConfigError = core.ConfigError

// NewPaRT creates an empty Page Reservation Table. An invalid configuration
// (e.g. a GroupPages that is not a power of two) is rejected with a
// *ConfigError; use PaRTConfig.Validate to check a configuration up front.
func NewPaRT(cfg PaRTConfig) (*PaRT, error) { return core.New(cfg) }

// MustNewPaRT is NewPaRT, panicking on an invalid configuration — for
// package-level variables and tests with known-good configs.
func MustNewPaRT(cfg PaRTConfig) *PaRT { return core.MustNew(cfg) }

// DefaultPaRTConfig returns the paper's design point: 8-page groups,
// fine-grained per-node locking.
func DefaultPaRTConfig() PaRTConfig { return core.DefaultConfig() }

// Guest kernel (the layer the paper patches).
type (
	// GuestKernel simulates the guest Linux VM subsystem.
	GuestKernel = guestos.Kernel
	// GuestConfig configures it, including the allocator policy.
	GuestConfig = guestos.Config
	// Process is one guest process.
	Process = guestos.Process
	// AllocPolicy selects the fault-time allocator.
	AllocPolicy = guestos.AllocPolicy
)

// Allocator policies.
const (
	// PolicyDefault is the stock Linux page-at-a-time buddy path.
	PolicyDefault = guestos.PolicyDefault
	// PolicyPTEMagnet is the paper's reservation-based path.
	PolicyPTEMagnet = guestos.PolicyPTEMagnet
	// PolicyCAPaging is the best-effort contiguity baseline from the
	// paper's related work, for comparison experiments.
	PolicyCAPaging = guestos.PolicyCAPaging
	// PolicyTHP is a transparent-huge-pages baseline (the §2.3 "big
	// hammer" the paper argues clouds avoid), for comparison experiments.
	PolicyTHP = guestos.PolicyTHP
)

// NewGuestKernel boots a guest kernel.
func NewGuestKernel(cfg GuestConfig) *GuestKernel { return guestos.NewKernel(cfg) }

// Full platform.
type (
	// Machine is the assembled host + VM + guest + caches + walker.
	Machine = vm.Machine
	// MachineConfig sizes the platform.
	MachineConfig = vm.Config
	// MachineRunOpt configures a Machine.RunWith (functional options:
	// WithEvents, WithSampleEvery, WithStopAtAccesses, WithMaxAccesses,
	// WithStopCorunnersAtInit).
	MachineRunOpt = vm.RunOpt
	// Task is one scheduled workload.
	Task = vm.Task
	// TaskReport is the per-benchmark measurement.
	TaskReport = vm.TaskReport
	// Tracer receives the machine's event stream in batches (see
	// NewTraceWriter for a ready-made recorder, PerAccessTracer to adapt a
	// per-event implementation).
	Tracer = vm.Tracer
	// AccessRecord is one executed access as delivered to a Tracer batch.
	AccessRecord = vm.AccessRecord
	// AccessTracer is the legacy per-event tracing interface; wrap with
	// PerAccessTracer before installing it on a Machine.
	AccessTracer = vm.AccessTracer
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
	// GuestStats is one guest's slice of the machine counters.
	GuestStats = vm.GuestStats
	// GuestReport is the per-guest post-run observation inside a Report.
	GuestReport = vm.GuestReport
	// RunEvent is a scheduled mid-run action (VM churn hooks).
	RunEvent = vm.RunEvent
)

// PerAccessTracer adapts a per-event AccessTracer to the batched Tracer
// interface a Machine expects.
func PerAccessTracer(t AccessTracer) Tracer { return vm.PerAccess(t) }

// Machine run options (Machine.RunWith).
var (
	// WithEvents schedules mid-run actions (VM churn hooks); repeated
	// uses append.
	WithEvents = vm.WithEvents
	// WithSampleEvery sets the fragmentation sampling interval in
	// accesses (0 = end-of-run only).
	WithSampleEvery = vm.WithSampleEvery
	// WithMaxAccesses caps each primary's access budget.
	WithMaxAccesses = vm.WithMaxAccesses
	// WithStopAtAccesses pauses the run once every primary has executed
	// the given access count (resume with another RunWith).
	WithStopAtAccesses = vm.WithStopAtAccesses
	// WithStopCorunnersAtInit stops co-runners once primaries finish
	// their init phase.
	WithStopCorunnersAtInit = vm.WithStopCorunnersAtInit
)

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

// NewMachine assembles a simulated platform.
func NewMachine(cfg MachineConfig) (*Machine, error) { return vm.New(cfg) }

// NewHostMachine assembles a multi-tenant platform: one shared host
// running every guest in cfg.Guests.
func NewHostMachine(cfg HostMachineConfig) (*Machine, error) { return vm.NewHost(cfg) }

// DefaultMachineConfig mirrors the paper's Table 2 platform at 1/256 scale.
func DefaultMachineConfig() MachineConfig { return vm.DefaultConfig() }

// Workloads.
type (
	// Program is a deterministic access-stream generator. Implement it to
	// run your own workload on the machine (see examples/kvstore).
	Program = workload.Program
	// BatchProgram extends Program with StepBatch, the machine's fast path.
	// Plain Programs still run everywhere via an internal adapter; implement
	// StepBatch (respecting its determinism contract) for throughput.
	BatchProgram = workload.BatchProgram
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
	NewPagerank   = workload.NewPagerank
	NewCC         = workload.NewCC
	NewBFS        = workload.NewBFS
	NewNibble     = workload.NewNibble
	NewMCF        = workload.NewMCF
	NewGCC        = workload.NewGCC
	NewOmnetpp    = workload.NewOmnetpp
	NewXZ         = workload.NewXZ
	NewObjdet     = workload.NewObjdet
	NewStressNG   = workload.NewStressNG
	NewChameleon  = workload.NewChameleon
	NewPyaes      = workload.NewPyaes
	NewJSONSerdes = workload.NewJSONSerdes
	NewRNNServing = workload.NewRNNServing
	NewAllocMicro = workload.NewAllocMicro
	NewSparse     = workload.NewSparse
)

// AsBatch upgrades a Program to a BatchProgram, returning it unchanged when
// it already implements StepBatch and wrapping it in a one-access-per-batch
// adapter otherwise. Machines do this internally; it is exported for
// benchmarks and custom harnesses.
var AsBatch = workload.AsBatch

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
	// FragReport is the §3.2 host-PT fragmentation metric.
	FragReport = metrics.FragReport
)

// Observability (DESIGN.md §8). Every stat-bearing component follows one
// API shape — Snapshot() T to read its counters, T.Delta(prev T) for
// windowed measurement — and Report aggregates them all: walker + cache +
// TLB + guest kernel + both buddy allocators + per-task fragmentation.
// RunScenarioCtx returns it in ScenarioResult.Report; Machine.Observe
// produces one for custom experiments. The scattered per-subsystem
// accessors that predated this shape (Machine.SteadyWalkStats, the
// cache/TLB getter methods) are gone; Snapshot/Observe are the only
// reading paths.
type (
	// Report is the aggregated observation of one machine after a run.
	Report = vm.Report
	// MachineStats is one Snapshot of every counter the machine owns.
	MachineStats = vm.Stats
	// CounterRegistry is the machine's named counter view
	// (Machine.Registry); its Snapshot backs run telemetry.
	CounterRegistry = obs.Registry
	// CounterSnapshot is an ordered point-in-time counter reading.
	CounterSnapshot = obs.Snapshot
	// RunRecord is the per-scenario telemetry record emitted by every
	// scenario run while a RunCollector is attached to the context.
	RunRecord = obs.RunRecord
	// RunCollector accumulates RunRecords across concurrent scenarios.
	RunCollector = obs.Collector
)

// WithRunCollector returns a context that makes every scenario executed
// under it (RunScenarioCtx, RunExperiment) emit a RunRecord to c.
func WithRunCollector(ctx context.Context, c *RunCollector) context.Context {
	return obs.WithCollector(ctx, c)
}

// Telemetry encoders: one JSON object per line, or CSV with one column
// per counter (see EXPERIMENTS.md for the schema).
var (
	WriteRunRecordsJSONL = obs.WriteJSONL
	WriteRunRecordsCSV   = obs.WriteCSV
)

// Benchmark and co-runner names accepted in a Scenario.
var (
	// Benchmarks lists the paper's eight evaluated benchmarks.
	Benchmarks = sim.Benchmarks
	// Corunners lists the Table 3 co-runner combination.
	Corunners = sim.Corunners
)

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

// Scenario-execution engine: experiment sets run through a bounded worker
// pool with deterministic (worker-count-independent) reduced output.
type (
	// Engine executes scenario sets; see NewEngine.
	Engine = engine.Engine
	// EngineEvent is one per-scenario progress report (Engine.OnEvent).
	EngineEvent = engine.Event
	// EngineHeartbeat is the periodic in-flight progress report
	// (Engine.OnHeartbeat, enabled by Engine.HeartbeatEvery).
	EngineHeartbeat = engine.Heartbeat
	// EngineStats counts the engine's lifetime activity (Engine.Snapshot).
	EngineStats = engine.Stats
)

// NewEngine returns an engine with the given worker count (<= 0 means
// GOMAXPROCS). WithEngine(nil) behaves like NewEngine(0).
func NewEngine(workers int) *Engine { return engine.New(workers) }

// DeriveSeed maps a base seed and a scenario name to a per-scenario seed
// independent of worker count and completion order.
func DeriveSeed(base int64, name string) int64 { return engine.DeriveSeed(base, name) }

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

// Registry entry points.
var (
	// Experiments lists every registered experiment in execution order.
	Experiments = sim.Experiments
	// MatchExperiments resolves a selector ("all", a name, or a tag like
	// "fig6") to the experiments it runs.
	MatchExperiments = sim.MatchExperiments
)

// Experiment run options (RunExperiment).
var (
	// WithScale selects the sweep sizing (default DefaultScale()).
	WithScale = sim.WithScale
	// WithSeed sets the base simulation seed (default DefaultSeed).
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

// DefaultExperimentSeed is the seed RunExperiment uses when WithSeed is
// absent (the cmd/experiments default).
const DefaultExperimentSeed = sim.DefaultSeed

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
	// MigrateOptions tunes the pre-copy protocol (round length, stop-and-
	// copy threshold, dirty-log sizing).
	MigrateOptions = migrate.Options
	// MigrationReport counts what one migration did: rounds, page traffic,
	// downtime in access-units.
	MigrationReport = migrate.Report
	// MigrateError is the typed failure of a migration; match the
	// destination-OOM case with errors.Is(err, ErrDestinationOOM).
	MigrateError = migrate.MigrateError
	// MigrationScenario configures one run of the migration sweep.
	MigrationScenario = sim.MigrationScenario
	// MigrationRunResult is one migration scenario's measurement.
	MigrationRunResult = sim.MigrationRunResult
	// MigrationResult covers the -exp migration sweep.
	MigrationResult = sim.MigrationResult
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
	// FaultPlan is one attempt's materialized injection schedule; arm it
	// with Machine.InstallFaultPlan or MigrateOptions.Faults.
	FaultPlan = faults.Plan
	// FaultSite identifies where a fault was injected.
	FaultSite = faults.Site
	// FaultError is the typed injected failure; errors.Is(err,
	// ErrFaultInjected) matches any injected fault.
	FaultError = faults.Error
	// RetryPolicy is the engine's per-scenario retry contract (max
	// attempts plus a retryable-error classifier).
	RetryPolicy = engine.RetryPolicy
	// ChaosRunResult is one chaos scenario's outcome.
	ChaosRunResult = sim.ChaosRunResult
	// ChaosResult covers the -exp chaos sweep.
	ChaosResult = sim.ChaosResult
)

// ErrFaultInjected is the sentinel wrapped by every injected fault.
var ErrFaultInjected = faults.ErrInjected

// Fault-injection entry points.
var (
	// NewFaultPlan materializes the attempt's schedule from a campaign.
	NewFaultPlan = faults.NewPlan
	// IsFaultInjected reports whether err stems from an injected fault.
	IsFaultInjected = faults.IsInjected
	// IsFaultTransient reports whether err is a transient injected fault
	// (the chaos sweep's default retry classifier).
	IsFaultTransient = faults.IsTransient
	// DefaultChaosRetry is the chaos sweep's default retry policy.
	DefaultChaosRetry = sim.DefaultChaosRetry
)

// Host memory overcommit (DESIGN.md §12): a watermark-driven balloon
// controller that relieves host pressure by inflating per-guest balloon
// targets, driving the guest reclaim daemon to break PTEMagnet
// reservations and return cold frames to the host buddy allocator.
type (
	// BalloonConfig arms the controller on a Machine (HostConfig.Balloon).
	BalloonConfig = balloon.Config
	// BalloonStats counts what the controller did (inflate/deflate cycles,
	// pages unbacked, OOM reliefs).
	BalloonStats = balloon.Stats
	// BalloonController is the host-side pressure controller itself,
	// reachable via Machine.Balloon.
	BalloonController = balloon.Controller
	// OvercommitRunResult is one overcommit scenario's measurement.
	OvercommitRunResult = sim.OvercommitRunResult
	// OvercommitResult covers the -exp overcommit sweep.
	OvercommitResult = sim.OvercommitResult
)

// OvercommitRatios is the overcommit sweep's declared-memory ratios, in
// percent.
var OvercommitRatios = sim.OvercommitRatios

// Tracing: record a machine's event stream to a compact binary format and
// analyze it offline.
type (
	// TraceWriter streams events; TraceReader iterates them.
	TraceWriter = trace.Writer
	TraceReader = trace.Reader
	// TraceEvent is one record; TraceSummary an aggregate.
	TraceEvent   = trace.Event
	TraceSummary = trace.Summary
	// TraceCollector adapts a TraceWriter to the Machine's Tracer.
	TraceCollector = trace.Collector
)

// Trace constructors.
var (
	// NewTraceWriter starts a trace on an io.Writer.
	NewTraceWriter = trace.NewWriter
	// NewTraceReader opens a recorded trace.
	NewTraceReader = trace.NewReader
	// NewTraceCollector wraps a writer for Machine.SetTracer.
	NewTraceCollector = trace.NewCollector
	// SummarizeTrace aggregates a recorded trace.
	SummarizeTrace = trace.Summarize
)
