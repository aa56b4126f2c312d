package workload

import "testing"

// TestAdapterEmitsSingleAccessBatches pins the adapter's safety property:
// a Program may call env mid-stream, so the adapter must never buffer more
// than one access per call.
func TestAdapterEmitsSingleAccessBatches(t *testing.T) {
	b := AsBatch(NewPagerank(GraphConfig{DatasetBytes: 1 << 20, Accesses: 100, Seed: 1}))
	env := newFakeEnv()
	if err := b.Setup(env); err != nil {
		t.Fatal(err)
	}
	buf := make([]Access, 16)
	for i := 0; i < 1000; i++ {
		n, done := b.StepBatch(env, buf)
		if done {
			return
		}
		if n != 1 {
			t.Fatalf("adapter batch size = %d, want 1", n)
		}
	}
}

func benchGraph() GraphConfig {
	return GraphConfig{DatasetBytes: 4 << 20, Accesses: 100_000, Seed: 9}
}

// BenchmarkPipelineStep measures the workload layer alone: pagerank drained
// to completion through Step.
func BenchmarkPipelineStep(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		p := NewPagerank(benchGraph())
		env := newFakeEnv()
		if err := p.Setup(env); err != nil {
			b.Fatal(err)
		}
		for {
			if _, done := p.Step(env); done {
				break
			}
			total++
		}
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "accesses/s")
}
