package obs

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
)

// RunRecord is the telemetry emitted for one scenario execution: where it
// ran (set/scenario), what configuration it was (fingerprint), how long it
// took (the only nondeterministic field, measured through
// engine.StartTimer), and every counter the machine exposes.
type RunRecord struct {
	Set         string
	Scenario    string
	Fingerprint string
	ElapsedMS   int64
	Counters    Snapshot
}

// MarshalJSON encodes the record with a fixed key order:
// set, scenario, fingerprint, elapsed_ms, counters. Everything except
// elapsed_ms is deterministic for a given configuration.
func (r RunRecord) MarshalJSON() ([]byte, error) {
	return r.appendJSON(nil), nil
}

func (r RunRecord) appendJSON(b []byte) []byte {
	b = append(b, `{"set":`...)
	b = strconv.AppendQuote(b, r.Set)
	b = append(b, `,"scenario":`...)
	b = strconv.AppendQuote(b, r.Scenario)
	b = append(b, `,"fingerprint":`...)
	b = strconv.AppendQuote(b, r.Fingerprint)
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendInt(b, r.ElapsedMS, 10)
	b = append(b, `,"counters":`...)
	b = r.Counters.appendJSON(b)
	return append(b, '}')
}

// Collector accumulates RunRecords from concurrently running scenarios.
// Add is safe to call from engine workers; Records sorts, so the output
// order does not depend on completion order.
type Collector struct {
	mu   sync.Mutex
	recs []RunRecord
}

// Add appends one record.
func (c *Collector) Add(rec RunRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

// Len returns the number of collected records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Records returns a copy of the collected records sorted by
// (Set, Scenario, Fingerprint). The fingerprint disambiguates sets that
// reuse scenario names with different configurations; records identical in
// all three keys are themselves identical modulo timing, so any residual
// tie order is invisible once elapsed_ms is excluded.
func (c *Collector) Records() []RunRecord {
	c.mu.Lock()
	out := append([]RunRecord(nil), c.recs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Set != out[j].Set {
			return out[i].Set < out[j].Set
		}
		if out[i].Scenario != out[j].Scenario {
			return out[i].Scenario < out[j].Scenario
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// WriteJSONL writes one JSON object per line in the given order.
func WriteJSONL(w io.Writer, recs []RunRecord) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, rec := range recs {
		buf = rec.appendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile creates the file at path and writes recs into it with write
// (WriteJSONL or WriteCSV).
func WriteFile(path string, recs []RunRecord, write func(io.Writer, []RunRecord) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSV writes the records as CSV: a header row of
// set,scenario,fingerprint,elapsed_ms followed by one column per counter,
// in registration order. All records must share one counter schema.
func WriteCSV(w io.Writer, recs []RunRecord) error {
	if len(recs) == 0 {
		return nil
	}
	cw := csv.NewWriter(w)
	first := recs[0].Counters
	header := make([]string, 0, 4+first.Len())
	header = append(header, "set", "scenario", "fingerprint", "elapsed_ms")
	for i := 0; i < first.Len(); i++ {
		header = append(header, first.Name(i))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, rec := range recs {
		if rec.Counters.Len() != first.Len() {
			return fmt.Errorf("obs: record %s/%s has %d counters, header has %d",
				rec.Set, rec.Scenario, rec.Counters.Len(), first.Len())
		}
		row[0] = rec.Set
		row[1] = rec.Scenario
		row[2] = rec.Fingerprint
		row[3] = strconv.FormatInt(rec.ElapsedMS, 10)
		for i := 0; i < rec.Counters.Len(); i++ {
			if rec.Counters.Name(i) != first.Name(i) {
				return fmt.Errorf("obs: record %s/%s counter %d is %q, header has %q",
					rec.Set, rec.Scenario, i, rec.Counters.Name(i), first.Name(i))
			}
			row[4+i] = strconv.FormatUint(rec.Counters.Value(i), 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fingerprint hashes the given parts into a 16-hex-digit configuration
// identity (fnv-1a, matching engine.DeriveSeed's hash family).
func Fingerprint(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

type collectorKey struct{}

// WithCollector returns a context carrying c; sim.RunCtx emits a RunRecord
// to it for every scenario it executes.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, collectorKey{}, c)
}

// CollectorFrom returns the collector attached by WithCollector, or nil.
func CollectorFrom(ctx context.Context) *Collector {
	c, _ := ctx.Value(collectorKey{}).(*Collector)
	return c
}
