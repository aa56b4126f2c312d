package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
	"ptemagnet/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// goldenScale is the tiny sizing every registered experiment completes at
// in well under a second: QuickScale with a 2MB dataset, 2MB co-runner
// footprints and a 4000-access budget.
func goldenScale() Scale {
	sc := QuickScale()
	sc.DatasetBytes = 2 << 20
	sc.CorunnerFootprint = 2 << 20
	sc.Accesses = 4000
	return sc
}

// golden is one experiment's committed reference output: its rendering,
// line by line, and one digest per RunRecord in collector order.
type golden struct {
	Output  []string       `json:"output"`
	Records []goldenRecord `json:"records"`
}

type goldenRecord struct {
	Set      string `json:"set"`
	Scenario string `json:"scenario"`
	Digest   string `json:"digest"`
}

// digest hashes a RunRecord's deterministic content: the configuration
// fingerprint and every counter in registration order.
func digest(r obs.RunRecord) string {
	parts := []string{r.Fingerprint}
	r.Counters.Each(func(name string, v uint64) {
		parts = append(parts, name+"="+strconv.FormatUint(v, 10))
	})
	return obs.Fingerprint(parts...)
}

// runGolden runs one experiment at goldenScale on an engine with the given
// worker count, returning its golden form, its RunRecords and their JSONL
// with elapsed_ms zeroed.
func runGolden(t *testing.T, name string, workers int) (golden, []obs.RunRecord, []byte) {
	t.Helper()
	c := &obs.Collector{}
	r, err := RunExperiment(context.Background(), name,
		WithEngine(engine.New(workers)), WithScale(goldenScale()), WithSeed(testSeed), WithCollector(c))
	if err != nil {
		t.Fatalf("%d workers: %v", workers, err)
	}
	g := golden{Output: strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n"), Records: []goldenRecord{}}
	recs := c.Records()
	for i := range recs {
		recs[i].ElapsedMS = 0
		g.Records = append(g.Records, goldenRecord{Set: recs[i].Set, Scenario: recs[i].Scenario, Digest: digest(recs[i])})
	}
	var jsonl bytes.Buffer
	if err := obs.WriteJSONL(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	return g, recs, jsonl.Bytes()
}

// counterChecks pin that the experiments owning a counter group exercise
// it at goldenScale, so the golden digests cover real activity there.
var counterChecks = map[string]func(t *testing.T, recs []obs.RunRecord){
	"overcommit": func(t *testing.T, recs []obs.RunRecord) {
		var unbacked uint64
		for _, rec := range recs {
			n, ok := rec.Counters.Get("balloon.unbacked_frames")
			if !ok {
				t.Fatalf("record %s/%s missing balloon.unbacked_frames", rec.Set, rec.Scenario)
			}
			unbacked += n
		}
		if unbacked == 0 {
			t.Error("no record shows any unbacked frame: the sweep never ballooned")
		}
	},
	"chaos": func(t *testing.T, recs []obs.RunRecord) {
		var faulted, retried bool
		for _, rec := range recs {
			injected, ok := rec.Counters.Get("faults.injected_total")
			if !ok {
				t.Fatalf("record %s/%s missing faults.injected_total", rec.Set, rec.Scenario)
			}
			attempt, ok := rec.Counters.Get("retry.attempt")
			if !ok {
				t.Fatalf("record %s/%s missing retry.attempt", rec.Set, rec.Scenario)
			}
			faulted = faulted || injected > 0
			if attempt > 0 {
				if n, _ := rec.Counters.Get("retry.prior_failures"); n == 0 {
					t.Errorf("record %s/%s: attempt %d with no prior failures", rec.Set, rec.Scenario, attempt)
				}
				retried = true
			}
		}
		if !faulted || !retried {
			t.Errorf("sweep exercised injection=%v retry=%v, want both", faulted, retried)
		}
	},
	"migration": func(t *testing.T, recs []obs.RunRecord) {
		for _, rec := range recs {
			if v, ok := rec.Counters.Get("migrate.pages_copied"); !ok || v == 0 {
				t.Errorf("%s: migrate.pages_copied = %d, %v", rec.Scenario, v, ok)
			}
		}
	},
}

// TestRegistryGolden is the behaviour oracle for every registered
// experiment except the wall-clock locking ablation: run at goldenScale
// with 1 and with 4 engine workers, the rendering and the RunRecord JSONL
// (elapsed_ms zeroed) must be byte-identical, and both must match the
// reference committed under testdata/golden. Regenerate the references
// with `go test ./internal/sim -run TestRegistryGolden -update`.
func TestRegistryGolden(t *testing.T) {
	for _, info := range Experiments() {
		if info.Name == "locking" {
			continue
		}
		name := info.Name
		t.Run(name, func(t *testing.T) {
			serial, recs, serialJSONL := runGolden(t, name, 1)
			parallel, _, parallelJSONL := runGolden(t, name, 4)
			if s, p := strings.Join(serial.Output, "\n"), strings.Join(parallel.Output, "\n"); s != p {
				t.Errorf("rendering differs between 1 and 4 workers:\n--- 1 worker ---\n%s\n--- 4 workers ---\n%s", s, p)
			}
			if !bytes.Equal(serialJSONL, parallelJSONL) {
				t.Errorf("RunRecord JSONL differs between 1 and 4 workers:\n--- 1 worker ---\n%s--- 4 workers ---\n%s", serialJSONL, parallelJSONL)
			}
			if check := counterChecks[name]; check != nil {
				check(t, recs)
			}

			path := filepath.Join("testdata", "golden", name+".json")
			if *update {
				b, err := json.MarshalIndent(serial, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want golden
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if got, exp := strings.Join(serial.Output, "\n"), strings.Join(want.Output, "\n"); got != exp {
				t.Errorf("rendering differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, exp)
			}
			if len(serial.Records) != len(want.Records) {
				t.Fatalf("%d RunRecords, %s has %d", len(serial.Records), path, len(want.Records))
			}
			for i, got := range serial.Records {
				if got != want.Records[i] {
					t.Errorf("record %d = %+v, %s has %+v", i, got, path, want.Records[i])
				}
			}
		})
	}
}
