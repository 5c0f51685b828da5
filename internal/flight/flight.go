// Package flight implements the always-on flight recorder: a small
// fixed-cost, overwrite-oldest ring of compressed per-retire records plus
// interleaved platform marks (IRQ lines rising, traps taken, MMIO bus
// transactions, kernel events). The recorder is fed from the hot loop of
// whichever core the platform built — the baseline VP or the VP+ — and it
// allocates nothing in steady state (proven by an alloc guard in
// flight_test.go, like the telemetry sampler's).
//
// The ring is also the platform's one per-retire stream: consumers (the
// guest profiler, guest coverage, vp-run -trace) Subscribe and receive every
// record exactly once, in capture order, in batches handed over by Flush.
//
// On a violation, a guest fault, or an explicit Platform.Snapshot, the
// ring's window is frozen into a forensic Bundle (bundle.go): one
// self-contained JSON document — disassembled trace window, register + tag
// file, provenance chain, memory/taint hexdumps around every address the
// window touched, policy identity, build metadata — plus a human-readable
// report (report.go). The package deliberately imports nothing outside the
// standard library so every layer (rv32, soc, telemetry, cmd tools) can
// depend on it without cycles; architecture-specific knowledge
// (disassembly, register names, RAM access) enters through the Snapshot
// struct's function fields.
package flight

import (
	"math"
	"sync"
	"time"
)

// DefaultSize is the default ring capacity in records. 4096 records at 24
// bytes each is ~96 KiB — resident in L2, far below any guest working set,
// and covering the last few thousand retires, which in practice spans the
// whole final basic-block neighborhood of a violation.
const DefaultSize = 4096

// Record kinds.
const (
	KindRetire    uint8 = iota // one retired instruction
	KindIRQ                    // an interrupt line rose (Aux = line mask)
	KindTrap                   // trap taken into the guest handler (Insn = cause, Addr = tval)
	KindBus                    // an MMIO bus transaction (Aux = interned range name, Insn = size)
	KindFault                  // terminal guest fault (unmapped access, trap with mtvec=0)
	KindViolation              // terminal policy violation — always the window's last record
	KindMark                   // generic platform event (Aux = interned name)
)

// Per-retire flag bits.
const (
	FlagBranch  uint8 = 1 << iota // control-transfer instruction
	FlagTaken                     // the transfer redirected the PC (next != pc+4)
	FlagLoad                      // memory load; Addr holds the effective address
	FlagStore                     // memory store; Addr holds the effective address
	FlagTaintRd                   // rd carries a non-default tag after retire (VP+ only)
)

// Rec is one compressed flight record: 24 bytes, fixed layout, no pointers,
// so the ring is a single flat allocation the GC never scans.
type Rec struct {
	Time uint64 // instruction index (Instret) at capture
	PC   uint32
	Insn uint32 // raw instruction word (retires); cause (traps); size (bus)
	// Addr is the effective address of a load or store, the successor PC of
	// any other retire, the bus address of a bus mark, tval for traps and
	// the faulting address for faults.
	Addr  uint32
	Aux   uint16 // IRQ line mask; interned name id for bus/kernel marks
	Kind  uint8
	Flags uint8
}

// Next returns the successor PC of a retire record. Loads and stores never
// redirect control, so their Addr is free to hold the effective address.
func (r *Rec) Next() uint32 {
	if r.Flags&(FlagLoad|FlagStore) != 0 {
		return r.PC + 4
	}
	return r.Addr
}

// Recorder is the overwrite-oldest flight ring. It is owned by the
// simulation thread: every producer (core retire path, platform mark sites)
// and every reader (Window, Bundle, the metrics snapshot, subscribers) runs
// on the kernel's cooperative scheduler, so no synchronization is needed.
type Recorder struct {
	recs []Rec
	mask uint64
	n    uint64 // monotonic count of records ever captured

	// Subscribers have seen every record before seen. limit is the capture
	// count at which the next record would overwrite one they have not
	// seen: seen plus the ring size, or never without a subscriber. It sits
	// next to n because every capture compares the two.
	limit uint64
	seen  uint64
	subs  []func([]Rec)

	bundles uint64

	// Interned mark names (bus range names, kernel event names). Id 0 is
	// reserved for "no name"; lookups after the first occurrence are a map
	// probe with no allocation, keeping the steady-state capture zero-alloc.
	names  []string
	nameID map[string]uint16
}

// New builds a recorder with the given ring capacity, rounded up to a power
// of two; size <= 0 selects DefaultSize.
func New(size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Recorder{
		recs:   make([]Rec, n),
		mask:   uint64(n - 1),
		limit:  math.MaxUint64,
		nameID: make(map[string]uint16),
	}
}

// Subscribe adds a consumer of the record stream. It receives every record
// captured from now on exactly once, in capture order, as one or more
// batches per Flush. A batch aliases the ring: the consumer must not keep
// it past the call.
func (r *Recorder) Subscribe(f func([]Rec)) {
	r.Flush()
	r.subs = append(r.subs, f)
	r.seen = r.n
	r.limit = r.n + uint64(len(r.recs))
}

// Subscribed reports whether any consumer reads the stream.
func (r *Recorder) Subscribed() bool { return len(r.subs) != 0 }

// Full reports whether every slot holds a record the subscribers have not
// seen, so the next capture would overwrite one; every capture site checks
// it right after capturing and flushes. Never true without a subscriber.
// Like Slot it must stay inlinable (CI checks both with -gcflags=-m).
func (r *Recorder) Full() bool { return r.n >= r.limit }

// Flush hands every record captured since the last flush to each
// subscriber, oldest first, in at most two batches (the ring may wrap).
// Allocation-free; a no-op without subscribers or pending records.
func (r *Recorder) Flush() {
	if len(r.subs) == 0 || r.seen == r.n {
		return
	}
	size := uint64(len(r.recs))
	from := r.seen & r.mask
	head := r.recs[from:min(from+r.n-r.seen, size)]
	tail := r.recs[:r.n-r.seen-uint64(len(head))]
	for _, f := range r.subs {
		f(head)
		if len(tail) > 0 {
			f(tail)
		}
	}
	r.seen = r.n
	r.limit = r.n + size
}

// Slot claims the next overwrite-oldest slot and advances the ring. It is
// deliberately tiny so it inlines into the interpreter hot loops (the alloc
// guard and the benchmark's flight.ns_per_insn row both depend on the
// capture staying a handful of instructions); a flush call would push it
// over the inlining budget, so callers check Full and Flush after filling
// the slot. Slots are recycled: the caller must overwrite every field.
func (r *Recorder) Slot() *Rec {
	rec := &r.recs[r.n&r.mask]
	r.n++
	return rec
}

// mark appends a non-retire record.
func (r *Recorder) mark(kind uint8, time uint64, pc, insn, addr uint32, aux uint16, flags uint8) {
	rec := r.Slot()
	rec.Time = time
	rec.PC = pc
	rec.Insn = insn
	rec.Addr = addr
	rec.Aux = aux
	rec.Kind = kind
	rec.Flags = flags
	if r.Full() {
		r.Flush()
	}
}

// MarkIRQ records an interrupt line rising.
func (r *Recorder) MarkIRQ(time uint64, line uint32) {
	r.mark(KindIRQ, time, 0, 0, 0, uint16(line), 0)
}

// MarkTrap records a trap taken into the guest handler.
func (r *Recorder) MarkTrap(time uint64, epc, tval, cause uint32) {
	r.mark(KindTrap, time, epc, cause, tval, 0, 0)
}

// MarkBus records an MMIO bus transaction against the named address range.
func (r *Recorder) MarkBus(time uint64, rangeName string, addr uint32, write bool, size int) {
	fl := FlagLoad
	if write {
		fl = FlagStore
	}
	r.mark(KindBus, time, 0, uint32(size), addr, r.intern(rangeName), fl)
}

// MarkEvent records a generic named platform event (e.g. "wfi-sleep").
func (r *Recorder) MarkEvent(time uint64, name string) {
	r.mark(KindMark, time, 0, 0, 0, r.intern(name), 0)
}

// MarkViolation records the terminal policy violation; the bundle builder
// relies on it being the window's last record so the trace provably ends at
// the violating instruction.
func (r *Recorder) MarkViolation(time uint64, pc, insn, addr uint32) {
	r.mark(KindViolation, time, pc, insn, addr, 0, 0)
}

// MarkFault records a terminal guest fault (unmapped/misaligned access,
// illegal instruction or other trap with no handler installed).
func (r *Recorder) MarkFault(time uint64, pc, insn, addr uint32) {
	r.mark(KindFault, time, pc, insn, addr, 0, 0)
}

func (r *Recorder) intern(name string) uint16 {
	if id, ok := r.nameID[name]; ok {
		return id
	}
	// Ids are 1-based; 0 means "no name". Cap the table well below uint16
	// range — mark names come from the fixed peripheral map, not user input.
	if len(r.names) >= 1<<12 {
		return 0
	}
	r.names = append(r.names, name)
	id := uint16(len(r.names))
	r.nameID[name] = id
	return id
}

// NameOf resolves an interned mark-name id; empty for id 0 or unknown ids.
func (r *Recorder) NameOf(id uint16) string {
	if id == 0 || int(id) > len(r.names) {
		return ""
	}
	return r.names[id-1]
}

// Window returns the captured records in chronological order (oldest
// first). The returned slice is a copy; the ring keeps recording.
func (r *Recorder) Window() []Rec {
	count := r.n
	if size := uint64(len(r.recs)); count > size {
		count = size
	}
	out := make([]Rec, count)
	start := r.n - count
	for k := uint64(0); k < count; k++ {
		out[k] = r.recs[(start+k)&r.mask]
	}
	return out
}

// Len reports the current ring occupancy in records.
func (r *Recorder) Len() int {
	if r.n > uint64(len(r.recs)) {
		return len(r.recs)
	}
	return int(r.n)
}

// Size reports the ring capacity in records.
func (r *Recorder) Size() int { return len(r.recs) }

// Captured reports how many records were ever captured.
func (r *Recorder) Captured() uint64 { return r.n }

// Dropped reports how many captured records the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r.n > uint64(len(r.recs)) {
		return r.n - uint64(len(r.recs))
	}
	return 0
}

// Bundles reports how many forensic bundles this recorder emitted.
func (r *Recorder) Bundles() uint64 { return r.bundles }

var (
	captureCostOnce sync.Once
	captureCostNs   uint64
)

// CaptureCostNs reports the measured cost of one retire capture in
// nanoseconds, calibrated once per process against a throwaway ring (so the
// exporter can publish a real number instead of a guess). Typically 1-5 ns;
// the value is volatile across hosts and excluded from golden reports.
func CaptureCostNs() uint64 {
	captureCostOnce.Do(func() {
		r := New(DefaultSize)
		const reps = 1 << 16
		start := time.Now()
		for i := 0; i < reps; i++ {
			// The cores' hand-inlined capture (see rv32/flightcap.go).
			rec := r.Slot()
			rec.Time = uint64(i)
			rec.PC = 0x80000000
			rec.Insn = 0x00000013
			rec.Addr = 0x80000004
			rec.Aux = 0
			rec.Kind = KindRetire
			rec.Flags = 0
			if r.Full() {
				r.Flush()
			}
		}
		captureCostNs = uint64(time.Since(start).Nanoseconds() / reps)
	})
	return captureCostNs
}
