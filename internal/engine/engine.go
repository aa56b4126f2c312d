// Package engine is the scenario-execution layer of the experiment
// harness: a Set names a group of independent scenarios plus a reduce
// step, and Execute runs the set through a bounded worker pool.
//
// The determinism contract: scenario results are keyed by scenario name
// and handed to the reduce step in declaration order, and every scenario
// carries its own seed (derived at set-declaration time, never from
// execution order), so the reduced output is bit-identical regardless of
// worker count or completion order. A set that reduces identically under
// Workers=1 and Workers=N is the invariant the determinism regression
// tests pin.
//
// Failure is per-scenario: one failing scenario does not abort its
// siblings. The reduce step sees every error alongside the successful
// results and decides what partial output is still meaningful
// (Results.FailedErr joins the failures in declaration order).
package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"time"
)

// Scenario is one named, independent unit of work. Run receives the
// execution context and must honour cancellation; it must not share
// mutable state with sibling scenarios (each simulation run builds its
// own machine).
type Scenario[R any] struct {
	// Name keys the scenario's result; unique within a set.
	Name string
	// Run produces the scenario's result.
	Run func(ctx context.Context) (R, error)
}

// Set is a named group of scenarios plus the deterministic reduce step
// that folds their results into one output.
type Set[R, O any] struct {
	// Name labels the set in progress events.
	Name string
	// Scenarios are executed concurrently; declaration order is the
	// order the reduce step observes.
	Scenarios []Scenario[R]
	// Reduce folds the keyed results into the set's output. It runs
	// exactly once, after every scenario has finished (or failed), on
	// the caller's goroutine. A nil Reduce yields the zero output and
	// Results.FailedErr.
	Reduce func(Results[R]) (O, error)
	// Retry re-runs failing scenarios per its policy. The zero value
	// retries nothing.
	Retry RetryPolicy
}

// RetryPolicy controls per-scenario retries within a set. Retries are
// deterministic by construction: the attempt index travels in the
// context (WithAttempt/AttemptFrom), so a scenario that derives its
// state from (seed, attempt) replays identically for any worker count,
// and backoff is simulated — a retried scenario re-derives its schedule
// for the next attempt instead of sleeping wall-clock time.
type RetryPolicy struct {
	// MaxAttempts bounds the total attempts per scenario; 0 and 1 both
	// mean a single attempt (no retry).
	MaxAttempts int
	// Retryable classifies a failed attempt's error; only errors it
	// accepts are retried (e.g. faults.IsTransient). A nil classifier
	// retries nothing.
	Retryable func(error) bool
}

// allows reports whether a failed attempt (0-based index) may retry.
func (p RetryPolicy) allows(attempt int, err error) bool {
	return attempt+1 < p.MaxAttempts && p.Retryable != nil && p.Retryable(err)
}

// Results holds the per-scenario outcomes of one executed set, keyed by
// scenario name.
type Results[R any] struct {
	order  []string
	byName map[string]R
	errs   map[string]error
}

// Names returns the scenario names in declaration order.
func (r Results[R]) Names() []string { return r.order }

// Len returns the number of scenarios executed.
func (r Results[R]) Len() int { return len(r.order) }

// Get returns the named scenario's result; ok is false if the scenario
// failed or does not exist.
func (r Results[R]) Get(name string) (res R, ok bool) {
	res, ok = r.byName[name]
	return res, ok
}

// Err returns the named scenario's error (nil if it succeeded).
func (r Results[R]) Err(name string) error { return r.errs[name] }

// FailedErr joins every scenario failure in declaration order, or
// returns nil if all scenarios succeeded.
func (r Results[R]) FailedErr() error {
	var errs []error
	for _, name := range r.order {
		if err := r.errs[name]; err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// Event reports one completed (or failed) scenario to the progress
// callback.
type Event struct {
	// Set and Scenario name what finished.
	Set, Scenario string
	// Done of Total scenarios have completed, this one included.
	Done, Total int
	// Elapsed is this scenario's own wall-clock time.
	Elapsed time.Duration
	// Err is the scenario's failure, if any.
	Err error
}

// Engine executes scenario sets through a worker pool.
type Engine struct {
	// Workers bounds concurrent scenarios. Zero or negative means
	// GOMAXPROCS.
	Workers int
	// OnEvent, if set, receives one Event per finished scenario.
	// Calls are serialized; the callback must not block for long.
	OnEvent func(Event)
}

// New returns an engine with the given worker count (<= 0 → GOMAXPROCS).
func New(workers int) *Engine { return &Engine{Workers: workers} }

func (e *Engine) workerCount(jobs int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Execute runs every scenario of the set through e's worker pool and
// reduces the results. A nil engine uses default settings. Scenarios
// that fail (or are skipped because ctx was canceled) surface through
// Results to the reduce step; Execute itself errors only on a malformed
// set (duplicate or empty scenario names).
func Execute[R, O any](ctx context.Context, e *Engine, set Set[R, O]) (O, error) {
	var zero O
	if e == nil {
		e = New(0)
	}
	n := len(set.Scenarios)
	seen := make(map[string]struct{}, n)
	for _, s := range set.Scenarios {
		if s.Name == "" {
			return zero, fmt.Errorf("engine: set %q has a scenario with an empty name", set.Name)
		}
		if _, dup := seen[s.Name]; dup {
			return zero, fmt.Errorf("engine: set %q declares scenario %q twice", set.Name, s.Name)
		}
		seen[s.Name] = struct{}{}
	}

	results := make([]R, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes the done counter and OnEvent calls
	done := 0

	finish := func(i int, elapsed time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if e.OnEvent != nil {
			e.OnEvent(Event{
				Set: set.Name, Scenario: set.Scenarios[i].Name,
				Done: done, Total: n, Elapsed: elapsed, Err: errs[i],
			})
		}
	}

	for w := e.workerCount(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				stop := StartTimer()
				info := ScenarioInfo{Set: set.Name, Scenario: set.Scenarios[i].Name}
				// Retries replay the scenario with the next attempt
				// index in the context; scenarios keyed on it (fault
				// plans) see a fresh schedule, so recovery is a pure
				// function of (seed, attempt) — never of worker count.
				for attempt := 0; ; attempt++ {
					sctx := WithScenarioInfo(WithAttempt(ctx, attempt), info)
					errs[i] = runScenario(sctx, set.Scenarios[i], &results[i])
					if errs[i] == nil || !set.Retry.allows(attempt, errs[i]) {
						break
					}
				}
				finish(i, stop())
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	res := Results[R]{
		order:  make([]string, n),
		byName: make(map[string]R, n),
		errs:   make(map[string]error, n),
	}
	for i, s := range set.Scenarios {
		res.order[i] = s.Name
		if errs[i] != nil {
			res.errs[s.Name] = errs[i]
			continue
		}
		res.byName[s.Name] = results[i]
	}
	if set.Reduce == nil {
		return zero, res.FailedErr()
	}
	return set.Reduce(res)
}

// runScenario runs one scenario, converting cancellation into a skip and
// a panic into an error so one bad scenario cannot take down the pool.
func runScenario[R any](ctx context.Context, s Scenario[R], out *R) (err error) {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("skipped: %w", cerr)
	}
	defer func() {
		if p := recover(); p != nil {
			// Error-valued panics wrap with %w so the typed chain —
			// including injected-fault markers — survives for retry
			// classifiers.
			if perr, ok := p.(error); ok {
				err = fmt.Errorf("scenario panicked: %w", perr)
			} else {
				err = fmt.Errorf("scenario panicked: %v", p)
			}
		}
	}()
	*out, err = s.Run(ctx)
	return err
}

// StartTimer is the engine's wall-clock hook: it returns a stop function
// reporting the elapsed time since the StartTimer call. All wall-clock
// measurement below cmd/ flows through this hook — the engine stamps
// scenario Events with it, and ablations that measure real throughput
// (e.g. the PaRT locking ablation) use it instead of calling time.Now
// directly. Keeping every clock read behind one named hook is what lets
// ptmlint's noclock analyzer prove the simulation core reads no
// host-machine state (DESIGN.md §6).
func StartTimer() func() time.Duration {
	t0 := time.Now()
	return func() time.Duration { return time.Since(t0) }
}

// ScenarioInfo names the currently executing scenario; Execute attaches
// it to the context handed to each Scenario.Run so lower layers
// (sim.RunCtx's telemetry) can label their output without the scenario
// closure threading names through by hand.
type ScenarioInfo struct {
	Set, Scenario string
}

type scenarioInfoKey struct{}

// WithScenarioInfo returns a context carrying info.
func WithScenarioInfo(ctx context.Context, info ScenarioInfo) context.Context {
	return context.WithValue(ctx, scenarioInfoKey{}, info)
}

// ScenarioInfoFrom returns the scenario identity attached by Execute.
func ScenarioInfoFrom(ctx context.Context) (ScenarioInfo, bool) {
	info, ok := ctx.Value(scenarioInfoKey{}).(ScenarioInfo)
	return info, ok
}

type attemptKey struct{}

// WithAttempt returns a context carrying the retry attempt index
// (0 = first attempt). Execute attaches it before each attempt.
func WithAttempt(ctx context.Context, attempt int) context.Context {
	return context.WithValue(ctx, attemptKey{}, attempt)
}

// AttemptFrom returns the retry attempt index attached by Execute
// (0 when absent, i.e. outside a retrying set).
func AttemptFrom(ctx context.Context) int {
	attempt, _ := ctx.Value(attemptKey{}).(int)
	return attempt
}

// DeriveSeed maps a base seed and a scenario name to a per-scenario seed
// that depends only on the two inputs — never on worker count or
// completion order. New scenario sets should derive their seeds through
// this function; the pre-engine experiment sets keep their historical
// arithmetic seed formulas so EXPERIMENTS.md numbers stay reproducible.
func DeriveSeed(base int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64())
}
