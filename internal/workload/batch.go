package workload

// BatchAdapter drains a Program through a buffer-filling call, one access
// per call, for callers that consume access streams in batches.
type BatchAdapter struct{ Program }

// StepBatch stores the program's next access in buf[0] and returns 1, or
// returns done=true once the program has finished. It never buffers more
// than one access, so env calls inside Step keep their position in the
// stream.
func (b BatchAdapter) StepBatch(env Env, buf []Access) (n int, done bool) {
	if len(buf) == 0 {
		return 0, false
	}
	acc, done := b.Step(env)
	if done {
		return 0, true
	}
	buf[0] = acc
	return 1, false
}

// AsBatch wraps p in a BatchAdapter.
func AsBatch(p Program) BatchAdapter { return BatchAdapter{p} }
