// Package trace records the simulator's per-access event stream in a
// compact binary format for offline analysis: every memory access with its
// translation outcome (TLB hit or walk, cycles, serving cache level) and
// every page fault with its resolution kind.
//
// Traces are what the paper's authors extract with perf sampling; here they
// are exact. A recorded trace answers questions the aggregate counters
// cannot — which virtual regions pay the walk penalty, how walk latency
// distributes over time, when fault storms happen — and, because the
// simulator is deterministic, a trace is a complete, replayable description
// of a run.
//
// Format: a 16-byte header (magic "PTMT", version, record count) followed
// by fixed-size 32-byte little-endian records. A million-access run records
// in ~32MB.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"ptemagnet/internal/arch"
	"ptemagnet/internal/vm"
)

// Kind discriminates event records.
type Kind uint8

const (
	// KindAccess is one memory access (with its translation outcome).
	KindAccess Kind = iota
	// KindFault is one guest page fault.
	KindFault
)

// Event is one trace record.
type Event struct {
	// Seq is the global access sequence number at the time of the event.
	Seq uint64
	// Task identifies the workload (index in machine task order).
	Task uint8
	// Kind discriminates the union below.
	Kind Kind
	// VA is the accessed (or faulting) virtual address.
	VA arch.VirtAddr
	// Write marks stores.
	Write bool
	// TLBHit marks translations served by the TLB (KindAccess).
	TLBHit bool
	// ServedLevel is the cache level serving the data access, as a
	// cache.Level value (KindAccess).
	ServedLevel uint8
	// TranslationCycles is the translation cost of this access
	// (KindAccess).
	TranslationCycles uint32
	// DataCycles is the data-access cost (KindAccess).
	DataCycles uint32
	// FaultKind is the guestos.FaultKind (KindFault).
	FaultKind uint8
}

const (
	magic      = "PTMT"
	version    = 1
	headerSize = 16
	recordSize = 32
)

// flag bits inside the record.
const (
	flagWrite  = 1 << 0
	flagTLBHit = 1 << 1
)

// Writer streams events to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
	// countAt remembers whether the sink is seekable so Close can patch
	// the header; if not, the count in the header stays zero and readers
	// fall back to reading until EOF.
	seeker io.WriteSeeker
	buf    [recordSize]byte
	err    error
}

// NewWriter starts a trace on w, writing the header immediately. If w is
// also an io.WriteSeeker, Close patches the record count into the header;
// otherwise readers derive the count from the stream length.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriterSize(w, 1<<16)}
	if s, ok := w.(io.WriteSeeker); ok {
		tw.seeker = s
	}
	var hdr [headerSize]byte
	copy(hdr[:4], magic)
	hdr[4] = version
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Write appends one event.
func (tw *Writer) Write(e Event) error {
	if tw.err != nil {
		return tw.err
	}
	b := tw.buf[:]
	binary.LittleEndian.PutUint64(b[0:], e.Seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(e.VA))
	binary.LittleEndian.PutUint32(b[16:], e.TranslationCycles)
	binary.LittleEndian.PutUint32(b[20:], e.DataCycles)
	b[24] = e.Task
	b[25] = uint8(e.Kind)
	var flags uint8
	if e.Write {
		flags |= flagWrite
	}
	if e.TLBHit {
		flags |= flagTLBHit
	}
	b[26] = flags
	b[27] = e.ServedLevel
	b[28] = e.FaultKind
	b[29], b[30], b[31] = 0, 0, 0
	if _, err := tw.w.Write(b); err != nil {
		tw.err = err
		return err
	}
	tw.count++
	return nil
}

// Count returns the number of events written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Close flushes the stream and, when the sink is seekable, patches the
// record count into the header.
func (tw *Writer) Close() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		return err
	}
	if tw.seeker != nil {
		if _, err := tw.seeker.Seek(8, io.SeekStart); err != nil {
			return err
		}
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], tw.count)
		if _, err := tw.seeker.Write(cnt[:]); err != nil {
			return err
		}
		if _, err := tw.seeker.Seek(0, io.SeekEnd); err != nil {
			return err
		}
	}
	return nil
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed stream")

// Reader iterates a trace.
type Reader struct {
	r     *bufio.Reader
	count uint64 // from header; 0 = unknown, read to EOF
	read  uint64
	buf   [recordSize]byte
}

// NewReader validates the header and prepares iteration.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %w", ErrBadTrace, err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:4])
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, hdr[4])
	}
	return &Reader{r: br, count: binary.LittleEndian.Uint64(hdr[8:])}, nil
}

// Next returns the next event; io.EOF ends the stream.
func (tr *Reader) Next() (Event, error) {
	if tr.count > 0 && tr.read >= tr.count {
		return Event{}, io.EOF
	}
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if errors.Is(err, io.EOF) && tr.count == 0 {
			return Event{}, io.EOF
		}
		if errors.Is(err, io.EOF) {
			return Event{}, fmt.Errorf("%w: truncated at record %d of %d", ErrBadTrace, tr.read, tr.count)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Event{}, fmt.Errorf("%w: torn record %d", ErrBadTrace, tr.read)
		}
		return Event{}, err
	}
	b := tr.buf[:]
	e := Event{
		Seq:               binary.LittleEndian.Uint64(b[0:]),
		VA:                arch.VirtAddr(binary.LittleEndian.Uint64(b[8:])),
		TranslationCycles: binary.LittleEndian.Uint32(b[16:]),
		DataCycles:        binary.LittleEndian.Uint32(b[20:]),
		Task:              b[24],
		Kind:              Kind(b[25]),
		Write:             b[26]&flagWrite != 0,
		TLBHit:            b[26]&flagTLBHit != 0,
		ServedLevel:       b[27],
		FaultKind:         b[28],
	}
	tr.read++
	return e, nil
}

// ForEach iterates the whole stream.
func (tr *Reader) ForEach(fn func(Event) error) error {
	for {
		e, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// Collector adapts a Writer to the vm.Tracer interface, so a Machine can
// record its run directly. Errors are sticky and surfaced by Close.
type Collector struct {
	w   *Writer
	err error
}

// NewCollector wraps a Writer.
func NewCollector(w *Writer) *Collector { return &Collector{w: w} }

// AccessBatch records a batch of memory accesses in order.
func (c *Collector) AccessBatch(recs []vm.AccessRecord) {
	for i := range recs {
		if c.err != nil {
			return
		}
		r := &recs[i]
		c.err = c.w.Write(Event{
			Seq: r.Seq, Task: uint8(r.Task), Kind: KindAccess, VA: r.VA,
			Write: r.Write, TLBHit: r.TLBHit, ServedLevel: r.Served,
			TranslationCycles: clamp32(r.TranslationCycles),
			DataCycles:        clamp32(r.DataCycles),
		})
	}
}

// Fault records one guest page fault.
func (c *Collector) Fault(task int, va arch.VirtAddr, kind uint8, seq uint64) {
	if c.err != nil {
		return
	}
	c.err = c.w.Write(Event{Seq: seq, Task: uint8(task), Kind: KindFault, VA: va, FaultKind: kind})
}

// Close finishes the underlying writer and reports any sticky error.
func (c *Collector) Close() error {
	if c.err != nil {
		return c.err
	}
	return c.w.Close()
}

func clamp32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// Summary aggregates a trace for human consumption.
type Summary struct {
	// Events, Accesses and Faults count records by kind.
	Events, Accesses, Faults uint64
	// Writes counts store accesses.
	Writes uint64
	// TLBHits counts TLB-served translations; the rest walked.
	TLBHits uint64
	// TranslationCycles and DataCycles total the per-access costs.
	TranslationCycles, DataCycles uint64
	// PerTask breaks accesses down by task index.
	PerTask map[uint8]uint64
	// FaultsByKind breaks faults down by guestos.FaultKind value.
	FaultsByKind map[uint8]uint64
	// HotPages lists the most-accessed virtual pages, descending.
	HotPages []PageCount
}

// PageCount is one page's access count.
type PageCount struct {
	Page  arch.VirtAddr
	Count uint64
}

// Summarize scans a trace and aggregates it. topN bounds HotPages.
func Summarize(r io.Reader, topN int) (Summary, error) {
	tr, err := NewReader(r)
	if err != nil {
		return Summary{}, err
	}
	s := Summary{PerTask: map[uint8]uint64{}, FaultsByKind: map[uint8]uint64{}}
	pages := map[arch.VirtAddr]uint64{}
	err = tr.ForEach(func(e Event) error {
		s.Events++
		switch e.Kind {
		case KindAccess:
			s.Accesses++
			s.PerTask[e.Task]++
			if e.Write {
				s.Writes++
			}
			if e.TLBHit {
				s.TLBHits++
			}
			s.TranslationCycles += uint64(e.TranslationCycles)
			s.DataCycles += uint64(e.DataCycles)
			pages[e.VA.PageBase()]++
		case KindFault:
			s.Faults++
			s.FaultsByKind[e.FaultKind]++
		default:
			return fmt.Errorf("%w: unknown kind %d", ErrBadTrace, e.Kind)
		}
		return nil
	})
	if err != nil {
		return Summary{}, err
	}
	for page, count := range pages {
		s.HotPages = append(s.HotPages, PageCount{Page: page, Count: count})
	}
	sort.Slice(s.HotPages, func(i, j int) bool {
		if s.HotPages[i].Count != s.HotPages[j].Count {
			return s.HotPages[i].Count > s.HotPages[j].Count
		}
		return s.HotPages[i].Page < s.HotPages[j].Page
	})
	if topN > 0 && len(s.HotPages) > topN {
		s.HotPages = s.HotPages[:topN]
	}
	return s, nil
}
