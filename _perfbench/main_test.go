package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ptemagnet/internal/engine"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesTables keeps BENCHMARK.json and the metric tables the
// benchmark prints from in step.
func TestSpecMatchesTables(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark %v", names, workloadNames)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

// TestEveryMetricPrinted runs each workload once at the tiny size, untraced
// and traced, through the built command, and checks that every metric
// BENCHMARK.json names is printed with its unit, both in the text report
// and in the final JSON line.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	s := loadSpec(t)
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for trace, want := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			cmd := exec.Command(bin, "-workload", w, "-size", "tiny", "-seconds", "0",
				"-trace", []string{"0", "1"}[trace])
			cmd.Dir = ".."
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w, trace, err, stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			text := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				found := false
				for _, line := range strings.Split(text, "\n") {
					f := strings.Fields(line)
					if len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
						found = true
					}
				}
				if !found {
					t.Errorf("%s trace=%d: no report line for %s with unit %s", w, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestGateCatchesWrongSeed is the correctness gate's self-check: a pass
// checked against another seed's digests reports every scenario failed,
// and one checked against its own seed's (from a different worker count)
// reports none.
func TestGateCatchesWrongSeed(t *testing.T) {
	ctx := context.Background()
	w11, err := lookupWorkload("fault-path", "tiny", 11)
	if err != nil {
		t.Fatal(err)
	}
	w12, err := lookupWorkload("fault-path", "tiny", 12)
	if err != nil {
		t.Fatal(err)
	}
	ref := &gate{}
	runPass(ctx, w11, engine.New(2), 11, ref, false)
	want := ref.want

	wrong := runPass(ctx, w12, engine.New(2), 12, &gate{want: want}, false)
	if wrong.attempted == 0 || wrong.failed != wrong.attempted {
		t.Errorf("wrong seed: %d of %d scenarios failed, want all", wrong.failed, wrong.attempted)
	}
	same := runPass(ctx, w11, engine.New(1), 11, &gate{want: want}, false)
	if same.attempted == 0 || same.failed != 0 {
		t.Errorf("same seed, 1 worker: %d of %d scenarios failed, want none", same.failed, same.attempted)
	}
}

// TestCommittedDigests checks the committed digests load and cover the
// default and the held-out seed for every workload.
func TestCommittedDigests(t *testing.T) {
	for _, w := range workloadNames {
		d, err := loadDigests(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{11, 7919} {
			if d.expected(seed) == nil {
				t.Errorf("%s: no committed digests for seed %d", w, seed)
			}
		}
	}
}
