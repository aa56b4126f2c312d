package sim

import (
	"context"
	"reflect"
	"testing"

	"ptemagnet/internal/engine"
)

// TestSuiteDeterministicAcrossRepeatedRuns runs the same reduced set
// twice in one process with different worker counts and asserts equality
// — catching any hidden shared state between runs as well as order
// sensitivity.
func TestSuiteDeterministicAcrossRepeatedRuns(t *testing.T) {
	set := func() engine.Set[Result, SuiteResult] {
		return SuiteSet([]string{"gcc", "xz"}, []string{"objdet"}, QuickScale(), testSeed, 2)
	}
	first, err := engine.Execute(context.Background(), engine.New(2), set())
	if err != nil {
		t.Fatal(err)
	}
	second, err := engine.Execute(context.Background(), engine.New(3), set())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated runs differ:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if f, s := first.String(), second.String(); f != s {
		t.Errorf("rendered output not byte-identical:\n--- first ---\n%s--- second ---\n%s", f, s)
	}
}
