// Package flight implements the always-on flight recorder: a small
// fixed-cost, overwrite-oldest ring of retired instructions plus
// interleaved platform marks (IRQ lines rising, traps taken, MMIO bus
// transactions, kernel events). The recorder is fed from the hot loop of
// whichever core the platform built — the baseline VP or the VP+ — and it
// allocates nothing in steady state (proven by an alloc guard in
// flight_test.go, like the telemetry sampler's).
//
// The cores capture a basic block at a time. A block record stands for a
// run of straight-line retires: its first pc and instret, its length, and
// the word and successor of the instruction that ended it. Per retire a
// core writes only what the block cannot rebuild: the effective address of
// a load or store, and on the VP+ the instret of a retire that left a
// tagged rd, each in a side ring. Readers turn blocks back into one record
// per retire when they read them (expand.go): Window, the forensic bundle
// and the per-retire subscribers see exactly the records a per-retire
// capture would have written. Consumers that need no more than a block
// holds — the guest profiler and guest coverage — subscribe to the block
// records themselves.
//
// On a violation, a guest fault, or an explicit Platform.Snapshot, the
// ring's window is frozen into a forensic Bundle (bundle.go): one
// self-contained JSON document — disassembled trace window, register + tag
// file, provenance chain, memory/taint hexdumps around every address the
// window touched, policy identity, build metadata — plus a human-readable
// report (report.go). The package deliberately imports nothing outside the
// standard library so every layer (rv32, soc, telemetry, cmd tools) can
// depend on it without cycles; architecture-specific knowledge
// (instruction classes, disassembly, register names, RAM access) enters
// through the Code interface and the Snapshot struct's function fields.
package flight

import (
	"math"
	"slices"
	"sync"
	"time"
)

// DefaultSize is the default ring capacity in records. The ring holds at
// most that many 24-byte entries, ~96 KiB, and yields the last 4096
// records — the last few thousand retires, which in practice span the
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
	KindBlock                  // a run of retires; only block subscribers see one (see Rec)
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
//
// A block record (KindBlock) stands for Aux retires at consecutive words
// from PC, the first at instret Time, each but the last falling through to
// the next. Addr is the last one's successor. When Flags holds FlagBranch
// the block ended at a control transfer and Insn is its word; otherwise a
// mark or the end of a Run call cut it, Insn is 0 and the last retire fell
// through too.
type Rec struct {
	Time uint64 // instruction index (Instret) at capture
	PC   uint32
	Insn uint32 // raw instruction word (retires); cause (traps); size (bus)
	// Addr is the effective address of a load or store, the successor PC of
	// any other retire, the bus address of a bus mark, tval for traps and
	// the faulting address for faults.
	Addr  uint32
	Aux   uint16 // IRQ line mask; interned name id for bus/kernel marks; a block's length
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

// records returns how many records an entry of the ring stands for.
func (r *Rec) records() uint64 {
	if r.Kind == KindBlock {
		return uint64(r.Aux)
	}
	return 1
}

// maxBlock is the longest block a record holds (Aux is 16 bits); Room keeps
// every Run chunk, and so every block, within it.
const maxBlock = math.MaxUint16

// Code is the program a core executes, as the recorder reads it to expand
// block records: Word returns the instruction word now at pc, and Flags
// the static FlagBranch, FlagLoad and FlagStore bits of a retired word.
// The core that captures into the recorder supplies it (Resume).
type Code interface {
	Word(pc uint32) uint32
	Flags(w uint32) uint8
}

// kept is a word that a write replaced after retires may have executed it:
// the retires at pc before instret until executed w (unless an earlier
// kept entry for pc covers them).
type kept struct {
	until uint64
	pc, w uint32
}

// Recorder is the overwrite-oldest flight ring. It is owned by the
// simulation thread: every producer (core retire path, platform mark sites)
// and every reader (Window, Bundle, the metrics snapshot, subscribers) runs
// on the kernel's cooperative scheduler, so no synchronization is needed.
type Recorder struct {
	recs []Rec
	mask uint64
	n    uint64 // ring entries ever written

	// Subscribers have seen every entry before seen. limit is the entry
	// count at which the next entry would overwrite one they have not seen:
	// seen plus the ring size, or never without a subscriber. It sits next
	// to n because every entry written compares the two.
	limit uint64
	seen  uint64

	// count is the number of records ever captured: a block's retires plus
	// one per mark.
	count uint64

	// The open block: the retires since the last entry, from pc at instret
	// t, each falling through to the next. running is set between Resume
	// and Pause, while a core executes.
	pc      uint32
	t       uint64
	running bool
	code    Code

	// The side rings, sized like recs. addrs holds the effective address of
	// the load or store retiring at instret i at i&mask; trd the instrets of
	// the VP+ retires that left rd tagged, oldest first, ntrd ever pushed.
	addrs []uint32
	trd   []uint64
	ntrd  uint64

	// kept holds the words writes replaced after retires may have executed
	// them, in until order; see Keep.
	kept []kept

	// subs receive the expanded stream (one record per retire), bsubs the
	// entries themselves. seenT is the instret of the first retire subs
	// have not seen; buf is their expansion buffer.
	subs  []*subscriber
	bsubs []func([]Rec)
	seenT uint64
	buf   []Rec

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
		addrs:  make([]uint32, n),
		trd:    make([]uint64, n),
		nameID: make(map[string]uint16),
	}
}

// subscriber is a per-retire consumer; f is nil once it has cancelled.
type subscriber struct{ f func([]Rec) }

// Subscribe adds a consumer of the per-retire stream. It receives every
// record captured from now on exactly once, in capture order — a block
// expanded into one record per retire — as one or more batches per Flush.
// A batch is reused: the consumer must not keep it past the call.
//
// Expanding costs every retire, so a consumer that has read all it needs
// calls cancel, also from inside its own call: it receives nothing more,
// and once no per-retire consumer is left the recorder stops expanding.
func (r *Recorder) Subscribe(f func([]Rec)) (cancel func()) {
	r.subscribe()
	s := &subscriber{f}
	r.subs = append(r.subs, s)
	if r.buf == nil {
		r.buf = make([]Rec, 0, 256)
	}
	return func() { s.f = nil }
}

// SubscribeBlocks adds a consumer of the ring's own entries: block records
// and marks, each exactly once, in capture order, as one or more batches
// per Flush. A batch aliases the ring: the consumer must not keep it past
// the call.
func (r *Recorder) SubscribeBlocks(f func([]Rec)) {
	r.subscribe()
	r.bsubs = append(r.bsubs, f)
}

func (r *Recorder) subscribe() {
	r.Flush()
	r.seen, r.seenT = r.n, r.t
	r.limit = r.n + uint64(len(r.recs))
}

// Subscribed reports whether any consumer reads the stream.
func (r *Recorder) Subscribed() bool { return len(r.subs)+len(r.bsubs) != 0 }

// full reports whether every slot holds an entry the subscribers have not
// seen, so the next entry would overwrite one; every site that writes an
// entry checks it right after and flushes. Never true without a subscriber.
func (r *Recorder) full() bool { return r.n >= r.limit }

// Flush hands everything captured since the last flush to each subscriber,
// oldest first: block subscribers the entries, in at most two batches (the
// ring may wrap), per-retire subscribers the expanded records.
// Allocation-free; a no-op without subscribers or pending records.
func (r *Recorder) Flush() {
	r.subs = slices.DeleteFunc(r.subs, func(s *subscriber) bool { return s.f == nil })
	if !r.Subscribed() {
		r.limit = math.MaxUint64
		return
	}
	if r.seen != r.n {
		size := uint64(len(r.recs))
		from := r.seen & r.mask
		head := r.recs[from:min(from+r.n-r.seen, size)]
		tail := r.recs[:r.n-r.seen-uint64(len(head))]
		for _, f := range r.bsubs {
			f(head)
			if len(tail) > 0 {
				f(tail)
			}
		}
		if len(r.subs) > 0 {
			r.expand(r.seen, r.n, 0, r.buf, r.emit)
		}
	}
	r.seen, r.seenT = r.n, r.t
	r.limit = r.n + uint64(len(r.recs))
}

// emit hands one expanded batch to every per-retire subscriber that has
// not cancelled.
func (r *Recorder) emit(batch []Rec) {
	for _, s := range r.subs {
		if s.f != nil {
			s.f(batch)
		}
	}
}

// Resume opens a block: the core, whose program is code, will retire from
// pc at instret t. The cores call it at the start of every Run call and
// after entering a trap handler.
func (r *Recorder) Resume(code Code, pc uint32, t uint64) {
	r.code, r.pc, r.t, r.running = code, pc, t, true
}

// Room returns how many instructions, at most rem, a core that resumed at
// instret t may run before it pauses: a block holds at most maxBlock
// retires, and a per-retire subscriber must see a retire before the side
// rings reuse its slots, one ring size of instructions later.
func (r *Recorder) Room(t, rem uint64) uint64 {
	room := uint64(maxBlock)
	if len(r.subs) != 0 {
		size := uint64(len(r.recs))
		if t-r.seenT >= size {
			r.Flush()
		}
		room = min(room, r.seenT+size-t)
	}
	return min(rem, room)
}

// Pause closes the open block before instret t: the core stopped there at
// the end of a Run call (or of a Room chunk).
func (r *Recorder) Pause(t uint64) {
	if r.running && t > r.t {
		r.cut(t)
	}
	r.running = false
	if r.full() {
		r.Flush()
	}
}

// Branch closes the open block at the control transfer retiring at instret
// t: its word is w and it continued at next, where the next block opens.
func (r *Recorder) Branch(t uint64, w, next uint32) {
	l := t + 1 - r.t
	r.put(r.t, r.pc, w, next, uint16(l), KindBlock, FlagBranch)
	r.count += l
	r.pc, r.t = next, t+1
	if r.full() {
		r.Flush()
	}
}

// Addr records the effective address of the load or store retiring at
// instret t. Like TaintRd it runs per access and must stay inlinable (CI
// checks both with -gcflags=-m).
func (r *Recorder) Addr(t uint64, a uint32) { r.addrs[t&r.mask] = a }

// TaintRd records that the retire at instret t left a non-default tag in
// its destination register.
func (r *Recorder) TaintRd(t uint64) {
	r.trd[r.ntrd&r.mask] = t
	r.ntrd++
}

// Keep records the word w at pc before a write replaces it: a write that
// lands while a core runs (a store, or a device write it started) happens
// during the instruction at instret t, later writes before it. The cores
// keep every word their decode cache fetched since its last write, and the
// word of every fetch that bypassed the cache, so an expanded retire shows
// the word it executed. Both are rare while the decode cache covers the
// code, so Keep stays out of line and the interpreter loops stay compact.
//
//go:noinline
func (r *Recorder) Keep(pc, w uint32, t uint64) {
	until := t
	if r.running {
		until++
	}
	if len(r.kept) == cap(r.kept) {
		r.compact(t)
	}
	r.kept = append(r.kept, kept{until: until, pc: pc, w: w})
}

// compact drops the kept words no reader can need at instret t: the window
// and the unseen records hold no retire older than one ring size of
// instructions.
func (r *Recorder) compact(t uint64) {
	size := uint64(len(r.recs))
	k := 0
	for _, e := range r.kept {
		if e.until+size > t {
			r.kept[k] = e
			k++
		}
	}
	r.kept = r.kept[:k]
}

// cut closes the open block, which holds the retires before instret t > r.t.
func (r *Recorder) cut(t uint64) {
	l := t - r.t
	next := r.pc + 4*uint32(l)
	r.put(r.t, r.pc, 0, next, uint16(l), KindBlock, 0)
	r.count += l
	r.pc, r.t = next, t
}

// put writes the next overwrite-oldest entry; the caller then checks full.
// It stores field by field: a composite literal would be assembled on the
// stack and copied in wider moves that stall on the narrow stores, which
// measured three times slower per mark (2-vCPU Xeon VM).
func (r *Recorder) put(time uint64, pc, insn, addr uint32, aux uint16, kind, flags uint8) {
	rec := &r.recs[r.n&r.mask]
	rec.Time = time
	rec.PC = pc
	rec.Insn = insn
	rec.Addr = addr
	rec.Aux = aux
	rec.Kind = kind
	rec.Flags = flags
	r.n++
}

// mark appends a non-retire record at instret time, closing the open
// block first so the mark keeps its place among the retires.
func (r *Recorder) mark(kind uint8, time uint64, pc, insn, addr uint32, aux uint16, flags uint8) {
	if r.running && time > r.t {
		r.cut(time)
		if r.full() {
			r.Flush()
		}
	}
	r.put(time, pc, insn, addr, aux, kind, flags)
	r.count++
	if r.full() {
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
	r.MarkBusID(time, r.Intern(rangeName), addr, write, size)
}

// MarkBusID is MarkBus for a range name interned beforehand (Intern), for a
// caller that marks the same ranges on every transaction.
func (r *Recorder) MarkBusID(time uint64, nameID uint16, addr uint32, write bool, size int) {
	fl := FlagLoad
	if write {
		fl = FlagStore
	}
	r.mark(KindBus, time, 0, uint32(size), addr, nameID, fl)
}

// MarkEvent records a generic named platform event (e.g. "wfi-sleep").
func (r *Recorder) MarkEvent(time uint64, name string) {
	r.mark(KindMark, time, 0, 0, 0, r.Intern(name), 0)
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

// Intern returns the id of a mark name, the one NameOf resolves.
func (r *Recorder) Intern(name string) uint16 {
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

// Window returns the last Size() captured records in chronological order
// (oldest first), one per retire. The returned slice is a copy; the ring
// keeps recording. Records of a block still open in a running core are not
// in it.
func (r *Recorder) Window() []Rec {
	want := uint64(r.Len())
	out := make([]Rec, 0, want)
	from, have := r.n, uint64(0)
	for have < want {
		from--
		have += r.recs[from&r.mask].records()
	}
	return r.expand(from, r.n, have-want, out, nil)
}

// Len reports the current ring occupancy in records.
func (r *Recorder) Len() int {
	if r.count > uint64(len(r.recs)) {
		return len(r.recs)
	}
	return int(r.count)
}

// Size reports the ring capacity in records.
func (r *Recorder) Size() int { return len(r.recs) }

// Captured reports how many records were ever captured.
func (r *Recorder) Captured() uint64 { return r.count }

// Dropped reports how many captured records the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r.count > uint64(len(r.recs)) {
		return r.count - uint64(len(r.recs))
	}
	return 0
}

// Bundles reports how many forensic bundles this recorder emitted.
func (r *Recorder) Bundles() uint64 { return r.bundles }

var (
	captureCostOnce sync.Once
	captureCostNs   uint64
)

// captureBlock is the block length CaptureCostNs amortizes a close over.
const captureBlock = 5

// CaptureCostNs reports the measured capture cost per retire in
// nanoseconds, calibrated once per process against a throwaway ring (so
// the exporter can publish a real number instead of a guess): the address
// push a load or store makes, plus one block close per captureBlock
// retires. The value is volatile across hosts and excluded from golden
// reports.
func CaptureCostNs() uint64 {
	captureCostOnce.Do(func() {
		r := New(DefaultSize)
		const reps = 1 << 16
		r.Resume(nil, 0x80000000, 0)
		start := time.Now()
		for i := uint64(0); i < reps; i++ {
			r.Addr(i, 0x80001000)
			if i%captureBlock == captureBlock-1 {
				r.Branch(i, 0x00000063, 0x80000000)
			}
		}
		captureCostNs = uint64(time.Since(start).Nanoseconds() / reps)
	})
	return captureCostNs
}
