package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
)

// TestOvercommitCompletesWithoutOOM pins the acceptance bar: every
// configuration up to 2× completes with zero surfaced OOMError, the
// balloon doing real work at the higher ratios, and PTEMagnet's host
// fragmentation no worse than the default allocator's under the same
// pressure.
func TestOvercommitCompletesWithoutOOM(t *testing.T) {
	res, err := engine.Execute(context.Background(), nil, OvercommitSet(QuickScale(), testSeed))
	if err != nil {
		t.Fatalf("overcommitted sweep surfaced an error: %v", err)
	}
	if len(res.Rows) != 2*len(OvercommitRatios) {
		t.Fatalf("%d rows, want %d", len(res.Rows), 2*len(OvercommitRatios))
	}
	for _, row := range res.Rows {
		if row.Failed {
			t.Errorf("row %s failed", row.Name)
		}
		if row.CombinedGuestBytes <= row.HostMemBytes {
			t.Errorf("row %s not actually overcommitted: %d guest bytes on a %d host",
				row.Name, row.CombinedGuestBytes, row.HostMemBytes)
		}
	}
	for _, ratio := range OvercommitRatios {
		def, okD := res.rowFor(ratio, "default")
		mag, okM := res.rowFor(ratio, "ptemagnet")
		if !okD || !okM {
			t.Fatalf("ratio %d%% missing a policy row", ratio)
		}
		if ratio >= 150 && (def.Balloon.UnbackedFrames == 0 || mag.Balloon.UnbackedFrames == 0) {
			t.Errorf("ratio %d%% survived without unbacking (def %d, mag %d) — not under pressure",
				ratio, def.Balloon.UnbackedFrames, mag.Balloon.UnbackedFrames)
		}
		if mag.HostFragMean > def.HostFragMean {
			t.Errorf("ratio %d%%: PTEMagnet host frag %.3f worse than default %.3f",
				ratio, mag.HostFragMean, def.HostFragMean)
		}
	}
	if !strings.Contains(res.String(), "every configuration completed") {
		t.Error("rendered table does not state the zero-OOM outcome")
	}
}

// TestOvercommitExhaustionYieldsPartialResults pins graceful degradation
// in the reduce step: a job that dies (here: scripted to fail, standing
// in for ballooning genuinely running dry) becomes a Failed row alongside
// the completed ones, the error rides along, and the table marks it.
func TestOvercommitExhaustionYieldsPartialResults(t *testing.T) {
	set := OvercommitSet(QuickScale(), testSeed)
	doomed := set.Scenarios[len(set.Scenarios)-1].Name
	scripted := errors.New("balloon relief exhausted")
	set.Scenarios[len(set.Scenarios)-1].Run = func(context.Context) (OvercommitRunResult, error) {
		return OvercommitRunResult{}, scripted
	}
	res, err := engine.Execute(context.Background(), engine.New(1), set)
	if !errors.Is(err, scripted) {
		t.Fatalf("err = %v, want the scripted failure", err)
	}
	if len(res.Rows) != 2*len(OvercommitRatios) {
		t.Fatalf("%d rows, want %d including the failed one", len(res.Rows), 2*len(OvercommitRatios))
	}
	var failed, completed int
	for _, row := range res.Rows {
		if row.Failed {
			failed++
			if row.Name != doomed {
				t.Errorf("unexpected failed row %s", row.Name)
			}
			continue
		}
		completed++
	}
	if failed != 1 || completed != 2*len(OvercommitRatios)-1 {
		t.Errorf("failed=%d completed=%d, want 1 and %d", failed, completed, 2*len(OvercommitRatios)-1)
	}
	if out := res.String(); !strings.Contains(out, "FAILED") {
		t.Errorf("rendered table does not mark the failed row:\n%s", out)
	}
}

// TestBuildOvercommitMachineValidation pins the constructor's input
// checks.
func TestBuildOvercommitMachineValidation(t *testing.T) {
	if _, err := BuildOvercommitMachine(OvercommitScenario{RatioPct: 150, NumVMs: 1, Scale: QuickScale()}); err == nil {
		t.Error("single-tenant scenario accepted")
	}
	if _, err := BuildOvercommitMachine(OvercommitScenario{RatioPct: 90, NumVMs: 4, Scale: QuickScale()}); err == nil {
		t.Error("undercommitted ratio accepted")
	}
}
