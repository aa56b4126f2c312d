package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzTraceReader feeds arbitrary bytes to NewReader and Summarize. Each
// must fail with ErrBadTrace or succeed, and never panic; Summarize must
// fail whenever NewReader does. A summary must count as many events as
// the input holds records, and a Reader's ForEach must visit that many:
// the header's record count, or, when it is 0, the records that fill the
// bytes after the header. Its access and fault counts must add up to its
// events. The seeds are a short trace from Writer, the same trace cut
// mid-record, and the trace under a bad magic.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []Event{
		{Seq: 1, Kind: KindAccess, VA: 0x7f0000001000, TLBHit: true, ServedLevel: 1, TranslationCycles: 3, DataCycles: 4},
		{Seq: 2, Task: 1, Kind: KindFault, VA: 0x7f0000002000, FaultKind: 2},
		{Seq: 3, Task: 1, Kind: KindAccess, VA: 0x7f0000002008, Write: true, TranslationCycles: 90, DataCycles: 220},
	} {
		if err := w.Write(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:headerSize+recordSize+recordSize/2])
	f.Add(append([]byte("PTMX"), valid[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, readerErr := NewReader(bytes.NewReader(data))
		if readerErr != nil && !errors.Is(readerErr, ErrBadTrace) {
			t.Fatalf("NewReader: %v, want an ErrBadTrace", readerErr)
		}
		s, err := Summarize(bytes.NewReader(data), 4)
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("Summarize: %v, want an ErrBadTrace", err)
			}
			return
		}
		if readerErr != nil {
			t.Fatalf("Summarize succeeded where NewReader failed: %v", readerErr)
		}
		records := binary.LittleEndian.Uint64(data[8:headerSize])
		if records == 0 {
			records = uint64(len(data)-headerSize) / recordSize
		}
		if s.Events != records {
			t.Fatalf("summary counts %d events in a trace of %d records", s.Events, records)
		}
		if s.Accesses+s.Faults != s.Events {
			t.Fatalf("%d accesses + %d faults != %d events", s.Accesses, s.Faults, s.Events)
		}
		var visited uint64
		if err := r.ForEach(func(Event) error { visited++; return nil }); err != nil || visited != records {
			t.Fatalf("ForEach visited %d of %d records: %v", visited, records, err)
		}
	})
}
