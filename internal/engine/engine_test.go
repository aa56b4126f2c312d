package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// intSet builds a set of n scenarios named s0..s(n-1), each returning its
// own index, reduced to the slice of results in declaration order.
func intSet(n int) Set[int, []int] {
	var scenarios []Scenario[int]
	for i := 0; i < n; i++ {
		i := i
		scenarios = append(scenarios, Scenario[int]{
			Name: fmt.Sprintf("s%d", i),
			Run:  func(context.Context) (int, error) { return i, nil },
		})
	}
	return Set[int, []int]{
		Name:      "ints",
		Scenarios: scenarios,
		Reduce: func(res Results[int]) ([]int, error) {
			var out []int
			for _, name := range res.Names() {
				if v, ok := res.Get(name); ok {
					out = append(out, v)
				}
			}
			return out, res.FailedErr()
		},
	}
}

func TestExecuteReducesInDeclarationOrder(t *testing.T) {
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Execute(context.Background(), New(workers), intSet(8))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

func TestExecuteNilEngine(t *testing.T) {
	got, err := Execute(context.Background(), nil, intSet(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("got %v", got)
	}
}

func TestFailureIsPerScenario(t *testing.T) {
	boom := errors.New("boom")
	set := intSet(4)
	set.Scenarios[1].Run = func(context.Context) (int, error) { return 0, boom }
	set.Scenarios[2].Run = func(context.Context) (int, error) { panic("kaput") }

	got, err := Execute(context.Background(), New(4), set)
	if !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("partial results: got %v, want [0 3]", got)
	}
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("joined error should wrap the scenario error, got %v", err)
	}
	// Failures join in declaration order: s1 before s2.
	msg := err.Error()
	if i, j := strings.Index(msg, "s1:"), strings.Index(msg, "s2:"); i < 0 || j < 0 || i > j {
		t.Errorf("errors not in declaration order: %q", msg)
	}
	if !strings.Contains(msg, "panicked") {
		t.Errorf("panic not converted to error: %q", msg)
	}
}

func TestCanceledContextSkipsScenarios(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, New(2), intSet(4))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled in joined error, got %v", err)
	}
}

func TestMalformedSets(t *testing.T) {
	dup := intSet(2)
	dup.Scenarios[1].Name = dup.Scenarios[0].Name
	if _, err := Execute(context.Background(), nil, dup); err == nil {
		t.Error("duplicate names not rejected")
	}
	anon := intSet(2)
	anon.Scenarios[0].Name = ""
	if _, err := Execute(context.Background(), nil, anon); err == nil {
		t.Error("empty name not rejected")
	}
}

func TestNilReduceYieldsZeroAndFailedErr(t *testing.T) {
	set := intSet(2)
	set.Reduce = nil
	got, err := Execute(context.Background(), nil, set)
	if got != nil || err != nil {
		t.Errorf("got (%v, %v), want (nil, nil)", got, err)
	}
	set = intSet(2)
	set.Reduce = nil
	set.Scenarios[0].Run = func(context.Context) (int, error) { return 0, errors.New("x") }
	if _, err := Execute(context.Background(), nil, set); err == nil {
		t.Error("nil reduce should still surface FailedErr")
	}
}

func TestOnEventReportsEveryScenario(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	e := New(4)
	e.OnEvent = func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev)
	}
	if _, err := Execute(context.Background(), e, intSet(6)); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 6 || ev.Set != "ints" {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
	}
}

func TestResultsAccessors(t *testing.T) {
	set := intSet(3)
	boom := errors.New("boom")
	set.Scenarios[2].Run = func(context.Context) (int, error) { return 0, boom }
	set.Reduce = func(res Results[int]) ([]int, error) {
		if res.Len() != 3 {
			t.Errorf("Len = %d", res.Len())
		}
		if v, ok := res.Get("s1"); !ok || v != 1 {
			t.Errorf("Get(s1) = %v, %v", v, ok)
		}
		if _, ok := res.Get("s2"); ok {
			t.Error("failed scenario should not Get")
		}
		if !errors.Is(res.Err("s2"), boom) {
			t.Errorf("Err(s2) = %v", res.Err("s2"))
		}
		if res.Err("s0") != nil {
			t.Errorf("Err(s0) = %v", res.Err("s0"))
		}
		return nil, nil
	}
	if _, err := Execute(context.Background(), nil, set); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(11, "pagerank/r0")
	if a != DeriveSeed(11, "pagerank/r0") {
		t.Error("DeriveSeed not stable")
	}
	if a == DeriveSeed(11, "pagerank/r1") || a == DeriveSeed(12, "pagerank/r0") {
		t.Error("DeriveSeed collisions on adjacent inputs")
	}
}

func TestWorkerCount(t *testing.T) {
	for _, tc := range []struct{ workers, jobs, want int }{
		{4, 8, 4}, {8, 4, 4}, {1, 0, 1}, {3, 3, 3},
	} {
		if got := New(tc.workers).workerCount(tc.jobs); got != tc.want {
			t.Errorf("workerCount(jobs=%d, workers=%d) = %d, want %d", tc.jobs, tc.workers, got, tc.want)
		}
	}
	// Zero or negative workers fall back to GOMAXPROCS: at least one.
	if got := New(0).workerCount(64); got < 1 {
		t.Errorf("default workerCount = %d", got)
	}
}

// retrySet builds a one-scenario set whose run fails with err until the
// attempt index reaches succeedAt, recording every attempt it sees.
func retrySet(err error, succeedAt int, attempts *[]int) Set[int, []int] {
	return Set[int, []int]{
		Name: "retry",
		Scenarios: []Scenario[int]{{
			Name: "s0",
			Run: func(ctx context.Context) (int, error) {
				a := AttemptFrom(ctx)
				*attempts = append(*attempts, a)
				if a < succeedAt {
					return 0, err
				}
				return 42, nil
			},
		}},
		Reduce: func(res Results[int]) ([]int, error) {
			var out []int
			for _, name := range res.Names() {
				if v, ok := res.Get(name); ok {
					out = append(out, v)
				}
			}
			return out, res.FailedErr()
		},
	}
}

var errTransientTest = errors.New("transient test failure")

func TestRetryThenSucceed(t *testing.T) {
	var attempts []int
	set := retrySet(errTransientTest, 2, &attempts)
	set.Retry = RetryPolicy{MaxAttempts: 3, Retryable: func(err error) bool { return errors.Is(err, errTransientTest) }}
	got, err := Execute(context.Background(), New(1), set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{42}) {
		t.Errorf("got %v, want [42]", got)
	}
	if !reflect.DeepEqual(attempts, []int{0, 1, 2}) {
		t.Errorf("attempts %v, want [0 1 2]", attempts)
	}
}

func TestRetryExhaustionKeepsFailure(t *testing.T) {
	var attempts []int
	set := retrySet(errTransientTest, 99, &attempts)
	set.Retry = RetryPolicy{MaxAttempts: 2, Retryable: func(err error) bool { return errors.Is(err, errTransientTest) }}
	got, err := Execute(context.Background(), New(1), set)
	if err == nil || !errors.Is(err, errTransientTest) {
		t.Fatalf("err = %v, want the transient failure", err)
	}
	if len(got) != 0 {
		t.Errorf("got %v, want no results", got)
	}
	if !reflect.DeepEqual(attempts, []int{0, 1}) {
		t.Errorf("attempts %v, want [0 1]", attempts)
	}
}

func TestNonRetryableErrorFailsImmediately(t *testing.T) {
	var attempts []int
	set := retrySet(errTransientTest, 99, &attempts)
	set.Retry = RetryPolicy{MaxAttempts: 5, Retryable: func(err error) bool { return false }}
	if _, err := Execute(context.Background(), New(1), set); err == nil {
		t.Fatal("want failure")
	}
	if !reflect.DeepEqual(attempts, []int{0}) {
		t.Errorf("attempts %v, want [0]", attempts)
	}
}

func TestZeroRetryPolicyRunsOnce(t *testing.T) {
	var attempts []int
	if _, err := Execute(context.Background(), New(1), retrySet(errTransientTest, 99, &attempts)); err == nil {
		t.Fatal("want failure")
	}
	if !reflect.DeepEqual(attempts, []int{0}) {
		t.Errorf("attempts %v, want [0]", attempts)
	}
}

func TestAttemptFromDefaultsToZero(t *testing.T) {
	if a := AttemptFrom(context.Background()); a != 0 {
		t.Errorf("AttemptFrom = %d, want 0", a)
	}
}

// TestErrorPanicIsWrapped pins that a panic carrying an error value stays
// errors.Is/As-reachable through the engine's recovery, so retry
// classifiers can see injected faults that surface as walker panics.
func TestErrorPanicIsWrapped(t *testing.T) {
	set := Set[int, []int]{
		Name: "panics",
		Scenarios: []Scenario[int]{{
			Name: "s0",
			Run:  func(context.Context) (int, error) { panic(fmt.Errorf("boom: %w", errTransientTest)) },
		}},
		Reduce: func(res Results[int]) ([]int, error) { return nil, res.FailedErr() },
	}
	_, err := Execute(context.Background(), New(1), set)
	if !errors.Is(err, errTransientTest) {
		t.Errorf("panic error not reachable: %v", err)
	}
}

// TestRetryClearsErrorPanic pins the chaos recovery contract end to end at
// the engine layer: an error-valued panic on attempt 0 is retried when the
// policy classifies it, and attempt 1 succeeds.
func TestRetryClearsErrorPanic(t *testing.T) {
	set := Set[int, []int]{
		Name: "panics",
		Scenarios: []Scenario[int]{{
			Name: "s0",
			Run: func(ctx context.Context) (int, error) {
				if AttemptFrom(ctx) == 0 {
					panic(fmt.Errorf("boom: %w", errTransientTest))
				}
				return 7, nil
			},
		}},
		Retry: RetryPolicy{MaxAttempts: 2, Retryable: func(err error) bool { return errors.Is(err, errTransientTest) }},
		Reduce: func(res Results[int]) ([]int, error) {
			v, _ := res.Get("s0")
			return []int{v}, res.FailedErr()
		},
	}
	got, err := Execute(context.Background(), New(1), set)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{7}) {
		t.Errorf("got %v, want [7]", got)
	}
}
