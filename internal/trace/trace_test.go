package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/vm"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Seq: 1, Task: 0, Kind: KindAccess, VA: 0x7f0000001234, Write: true, TLBHit: false,
			ServedLevel: 3, TranslationCycles: 512, DataCycles: 220},
		{Seq: 1, Task: 0, Kind: KindFault, VA: 0x7f0000001000, FaultKind: 2},
		{Seq: 2, Task: 1, Kind: KindAccess, VA: 0x1000, TLBHit: true,
			ServedLevel: 0, TranslationCycles: 1, DataCycles: 4},
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last record: %v, want EOF", err)
	}
}

func TestFileRoundTripWithHeaderCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		w.Write(Event{Seq: uint64(i), Kind: KindAccess, VA: arch.VirtAddr(i) << arch.PageShift})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	r, err := NewReader(f2)
	if err != nil {
		t.Fatal(err)
	}
	if r.count != 100 {
		t.Errorf("header count = %d, want 100 (seekable sink patches header)", r.count)
	}
	n := 0
	if err := r.ForEach(func(Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("read %d records", n)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: %v", err)
	}
	bad := append([]byte("XXXX"), make([]byte, 12)...)
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: %v", err)
	}
	badVer := append([]byte(magic), make([]byte, 12)...)
	badVer[4] = 99
	if _, err := NewReader(bytes.NewReader(badVer)); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad version: %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Kind: KindAccess})
	w.Write(Event{Kind: KindAccess})
	w.Close()
	// Chop the last record in half.
	data := buf.Bytes()[:buf.Len()-16]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("torn record: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	hot := arch.VirtAddr(0x40000000)
	for i := 0; i < 10; i++ {
		w.Write(Event{Kind: KindAccess, Task: 0, VA: hot + arch.VirtAddr(i%2)*7, // same page
			TLBHit: i%2 == 0, Write: i%3 == 0, TranslationCycles: 10, DataCycles: 20})
	}
	w.Write(Event{Kind: KindAccess, Task: 1, VA: 0x50000000, TranslationCycles: 100, DataCycles: 220})
	w.Write(Event{Kind: KindFault, Task: 0, VA: hot, FaultKind: 3})
	w.Write(Event{Kind: KindFault, Task: 0, VA: hot, FaultKind: 3})
	w.Close()

	s, err := Summarize(bytes.NewReader(buf.Bytes()), 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Events != 13 || s.Accesses != 11 || s.Faults != 2 {
		t.Errorf("events=%d accesses=%d faults=%d", s.Events, s.Accesses, s.Faults)
	}
	if s.TLBHits != 5 {
		t.Errorf("TLBHits = %d", s.TLBHits)
	}
	if s.Writes != 4 {
		t.Errorf("Writes = %d", s.Writes)
	}
	if s.TranslationCycles != 200 || s.DataCycles != 420 {
		t.Errorf("cycles = %d/%d", s.TranslationCycles, s.DataCycles)
	}
	if s.PerTask[0] != 10 || s.PerTask[1] != 1 {
		t.Errorf("PerTask = %v", s.PerTask)
	}
	if s.FaultsByKind[3] != 2 {
		t.Errorf("FaultsByKind = %v", s.FaultsByKind)
	}
	if len(s.HotPages) != 2 || s.HotPages[0].Page != hot.PageBase() || s.HotPages[0].Count != 10 {
		t.Errorf("HotPages = %+v", s.HotPages)
	}
}

func TestSummarizeTopN(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 50; i++ {
		w.Write(Event{Kind: KindAccess, VA: arch.VirtAddr(i) << arch.PageShift})
	}
	w.Close()
	s, err := Summarize(bytes.NewReader(buf.Bytes()), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.HotPages) != 7 {
		t.Errorf("HotPages = %d, want 7", len(s.HotPages))
	}
}

func TestCollector(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	c := NewCollector(w)
	c.AccessBatch([]vm.AccessRecord{{
		Task: 2, VA: 0x1234, Write: true, TranslationCycles: 1 << 40, // clamps to max uint32
		DataCycles: 99, Served: 3, Seq: 7,
	}})
	c.Fault(2, 0x1000, 4, 7)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	e1, _ := r.Next()
	if e1.TranslationCycles != 1<<32-1 {
		t.Errorf("clamp failed: %d", e1.TranslationCycles)
	}
	if e1.Task != 2 || !e1.Write || e1.DataCycles != 99 {
		t.Errorf("access = %+v", e1)
	}
	e2, _ := r.Next()
	if e2.Kind != KindFault || e2.FaultKind != 4 {
		t.Errorf("fault = %+v", e2)
	}
}

func TestRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	var want []Event
	for i := 0; i < 2000; i++ {
		e := Event{
			Seq:               rng.Uint64(),
			Task:              uint8(rng.Intn(8)),
			Kind:              Kind(rng.Intn(2)),
			VA:                arch.VirtAddr(rng.Uint64()),
			Write:             rng.Intn(2) == 0,
			TLBHit:            rng.Intn(2) == 0,
			ServedLevel:       uint8(rng.Intn(4)),
			TranslationCycles: rng.Uint32(),
			DataCycles:        rng.Uint32(),
			FaultKind:         uint8(rng.Intn(7)),
		}
		want = append(want, e)
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	i := 0
	err := r.ForEach(func(got Event) error {
		if got != want[i] {
			t.Fatalf("record %d mismatch", i)
		}
		i++
		return nil
	})
	if err != nil || i != len(want) {
		t.Fatalf("err=%v read=%d", err, i)
	}
}

func BenchmarkWrite(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	e := Event{Seq: 1, Kind: KindAccess, VA: 0x7f0000001234, TranslationCycles: 512, DataCycles: 220}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write(e)
	}
}

func TestReaderUnknownCountReadsToEOF(t *testing.T) {
	// A non-seekable sink leaves the header count zero; readers must
	// consume until EOF instead.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		w.Write(Event{Seq: uint64(i), Kind: KindAccess})
	}
	w.Close()
	// Zero the count field manually (bytes.Buffer is not a seeker, so it
	// already is zero — assert that).
	data := buf.Bytes()
	for i := 8; i < 16; i++ {
		if data[i] != 0 {
			t.Fatalf("header count unexpectedly patched on non-seekable sink")
		}
	}
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := r.ForEach(func(Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("read %d records, want 5", n)
	}
}

func TestSummarizeRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Kind: Kind(9)})
	w.Close()
	if _, err := Summarize(bytes.NewReader(buf.Bytes()), 1); !errors.Is(err, ErrBadTrace) {
		t.Errorf("unknown kind: %v", err)
	}
}
