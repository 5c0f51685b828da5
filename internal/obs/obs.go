// Package obs is the platform's structured observability subsystem: it
// records tag-propagation provenance and bus/peripheral events across every
// layer of the virtual prototype, and counts its events and the bus
// traffic. Clearance checks and violations are counted where they are
// enforced, in the policy's enforcement counter set (core.Policy.Count).
//
// The paper's headline use case (Section VI-A) is debugging — the VP+ flags
// the UART debug-dump leak, but the engineer still has to work backwards by
// hand to find which instruction chain carried the PIN's HC tag to the
// uart0.tx port. An Observer closes that gap: while attached it records a
// fixed-size ring of TaintEvents linked backwards through per-register and
// per-memory-word source pointers, so a raised *core.Violation carries a
// provenance chain — the ordered list of instructions and bus transactions
// that moved the offending tag from its classification site to the failed
// clearance check.
//
// Everything here follows the existing Tracer nil-check discipline: the
// cores, peripherals, and the platform's bus trace hook call Observer
// methods only behind an `if obs != nil` guard, so a platform without an
// observer pays one predictable not-taken branch per hook site and records
// nothing. Table II overhead numbers are therefore unchanged when
// observability is off.
//
// An observer costs what it records. A hook whose datum is default-class
// and has no tracked source records nothing; so does a bus transaction of
// the default class, since no event links to a bus event. Events live in a
// circular buffer of Options.RingCapacity fixed-size, pointer-free records,
// allocated in chunks of 4 Ki records as the ring fills, with port names
// interned to a small id; once full, each new event overwrites the oldest.
// Backward links pointing at evicted events simply terminate the chain
// there — except classification events (the roots laid down at image load
// time), which are pinned in a separate never-evicted list so the start of
// a chain survives arbitrarily long runs. Memory provenance is one source
// per word: a table over RAM (SizeRAM), paged so that a page exists only
// once a tracked source reaches it, and a map for the words outside RAM
// (the peripherals' register windows).
package obs

import (
	"sort"

	"vpdift/internal/core"
	"vpdift/internal/tlm"
)

// Default sizing.
const (
	DefaultRingCapacity = 1 << 16
	DefaultMaxChain     = 64
)

// RegNone marks "no source register" in two-operand hook calls.
const RegNone = 0xff

// Ring and provenance-table geometry.
const (
	chunkShift   = 12 // ring records per chunk: 4 Ki
	chunkLen     = 1 << chunkShift
	memPageShift = 10 // provenance words per page: 4 KiB of RAM
	memPageLen   = 1 << memPageShift
)

// rec is one ring slot: a core.TaintEvent with its port name interned
// (Observer.portNames). It is fixed-size and pointer-free, so the garbage
// collector never scans the ring.
type rec struct {
	seq, time, prev, prev2 uint64
	pc, insn, addr, value  uint32
	port                   uint32
	kind                   core.TaintEventKind
	tag                    core.Tag
}

// memPage holds the provenance of memPageLen consecutive RAM words.
type memPage [memPageLen]uint64

// Options parameterizes an Observer.
type Options struct {
	// RingCapacity is the number of events the ring buffer holds before
	// eviction begins. Defaults to DefaultRingCapacity.
	RingCapacity int
	// MaxChain bounds the number of events reconstructed into a violation's
	// provenance chain. Defaults to DefaultMaxChain.
	MaxChain int
}

// Observer records taint provenance, platform events, and their counters.
// Create one with New, pass it to the platform (soc.Config.Obs or
// vpdift.WithObserver), run, then inspect Events, violation provenance, and
// the platform's MetricsSnapshot. An Observer must not be shared between
// platforms.
type Observer struct {
	opts Options

	lat *core.Lattice
	def core.Tag
	now func() uint64 // simulated time source (kernel wiring)

	// ring holds the event ring's chunks, chunkLen records each (the last
	// one shorter when the capacity is not a multiple), each allocated when
	// the ring first reaches it.
	ring      [][]rec
	seq       uint64
	evicted   uint64
	pinned    []core.TaintEvent
	portNames []string          // interned port names by id; id 0 is ""
	portIDs   map[string]uint32 // port name -> id

	// Provenance state: the last event that defined each register, each
	// memory word (word granularity, keyed by address>>2), the current PC
	// (set by indirect jumps), and the last store headed for a bus target.
	// A RAM word (a key in [memLo, memLo+memWords), set by SizeRAM) has its
	// slot in memPages, whose pages are allocated when a tracked source
	// first reaches them; any other word's source is in memSrc.
	regSrc   [32]uint64
	memLo    uint32
	memWords uint32
	memPages []*memPage
	memSrc   map[uint32]uint64
	pcSrc    uint64
	lastOut  uint64
	pending  uint64 // seq attached to the next register assignment
	curPC    uint32
	curInsn  uint32
	attached bool

	ports map[string]window // device name -> its bus register window

	busRead  uint64 // bytes moved by bus reads on registered ports
	busWrite uint64 // bytes moved by bus writes on registered ports
	busTxns  uint64
}

// window is a peripheral's register window on the bus.
type window struct{ base, size uint32 }

// New creates an Observer with default options.
func New() *Observer { return NewWithOptions(Options{}) }

// NewWithOptions creates an Observer.
func NewWithOptions(o Options) *Observer {
	if o.RingCapacity <= 0 {
		o.RingCapacity = DefaultRingCapacity
	}
	if o.MaxChain <= 0 {
		o.MaxChain = DefaultMaxChain
	}
	return &Observer{
		opts:      o,
		ring:      make([][]rec, (o.RingCapacity+chunkLen-1)>>chunkShift),
		portNames: []string{""},
		portIDs:   make(map[string]uint32),
		memSrc:    make(map[uint32]uint64),
		ports:     make(map[string]window),
	}
}

// SizeRAM gives the observer a per-word provenance table over the RAM
// window [base, base+size), whose pages are allocated as tracked sources
// reach them; words outside the window keep their provenance in a map. The
// platform calls it at load time, before it pins the classification roots;
// call it before the first hook.
func (o *Observer) SizeRAM(base, size uint32) {
	o.memLo, o.memWords = base>>2, size>>2
	o.memPages = make([]*memPage, (o.memWords+memPageLen-1)>>memPageShift)
}

// memSource returns the provenance seq of the word containing addr.
func (o *Observer) memSource(addr uint32) uint64 {
	if w := addr>>2 - o.memLo; w < o.memWords {
		if p := o.memPages[w>>memPageShift]; p != nil {
			return p[w&(memPageLen-1)]
		}
		return 0
	}
	return o.memSrc[addr>>2]
}

// setMemSource sets the provenance of the word containing addr; s == 0
// clears it.
func (o *Observer) setMemSource(addr uint32, s uint64) {
	if w := addr>>2 - o.memLo; w < o.memWords {
		p := o.memPages[w>>memPageShift]
		if p == nil {
			if s == 0 {
				return
			}
			p = new(memPage)
			o.memPages[w>>memPageShift] = p
		}
		p[w&(memPageLen-1)] = s
		return
	}
	if s == 0 {
		delete(o.memSrc, addr>>2)
	} else {
		o.memSrc[addr>>2] = s
	}
}

// Attach binds the observer to a platform's time source and security
// context. Called by the platform builder; an observer can be attached to
// exactly one platform.
func (o *Observer) Attach(now func() uint64, lat *core.Lattice, def core.Tag) {
	o.now = now
	o.lat = lat
	o.def = def
	o.attached = true
}

// Attached reports whether a platform has claimed this observer.
func (o *Observer) Attached() bool { return o.attached }

// Lattice returns the security lattice of the attached platform (nil on the
// baseline VP or before attachment). Exporters use it for class names.
func (o *Observer) Lattice() *core.Lattice { return o.lat }

// RegisterPort records a peripheral's bus register window [base,
// base+size), so input events can be associated with the memory-mapped
// register the CPU will read and the device's transactions recorded as bus
// events (OnBus).
func (o *Observer) RegisterPort(dev string, base, size uint32) {
	o.ports[dev] = window{base, size}
}

// EventCount returns the total number of events recorded (including evicted
// and pinned ones).
func (o *Observer) EventCount() uint64 { return o.seq }

// Evicted returns how many events were overwritten by ring eviction.
func (o *Observer) Evicted() uint64 { return o.evicted }

// Events returns the live events — pinned classification roots plus the
// ring's current contents — in sequence order.
func (o *Observer) Events() []core.TaintEvent {
	out := make([]core.TaintEvent, 0, len(o.pinned)+int(min(o.seq, uint64(o.opts.RingCapacity))))
	out = append(out, o.pinned...)
	for _, c := range o.ring {
		for i := range c {
			if c[i].seq != 0 {
				out = append(out, o.unpack(&c[i]))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// slot returns the ring record that seq maps to, (seq-1) mod capacity,
// allocating its chunk on first use. Pinned events consume sequence numbers
// without ring slots, so a slot can stay empty (seq 0) while the ring
// fills; lookups verify the stored seq, so holes never resolve.
func (o *Observer) slot(seq uint64) *rec {
	idx := int((seq - 1) % uint64(o.opts.RingCapacity))
	c := o.ring[idx>>chunkShift]
	if c == nil {
		c = make([]rec, min(chunkLen, o.opts.RingCapacity-idx&^(chunkLen-1)))
		o.ring[idx>>chunkShift] = c
	}
	return &c[idx&(chunkLen-1)]
}

// emit assigns a sequence number and simulated timestamp, writes the event
// into its ring slot (evicting whatever lived there), and returns its seq.
func (o *Observer) emit(ev core.TaintEvent) uint64 {
	o.seq++
	r := o.slot(o.seq)
	if r.seq != 0 {
		o.evicted++
	}
	*r = rec{
		seq: o.seq, prev: ev.Prev, prev2: ev.Prev2,
		pc: ev.PC, insn: ev.Insn, addr: ev.Addr, value: ev.Value,
		port: o.portID(ev.Port), kind: ev.Kind, tag: ev.Tag,
	}
	if o.now != nil {
		r.time = o.now()
	}
	return o.seq
}

// portID interns a port name.
func (o *Observer) portID(name string) uint32 {
	if name == "" {
		return 0
	}
	id, ok := o.portIDs[name]
	if !ok {
		id = uint32(len(o.portNames))
		o.portNames = append(o.portNames, name)
		o.portIDs[name] = id
	}
	return id
}

// unpack expands a ring record into its event.
func (o *Observer) unpack(r *rec) core.TaintEvent {
	return core.TaintEvent{
		Seq: r.seq, Time: r.time, Kind: r.kind, PC: r.pc, Insn: r.insn,
		Addr: r.addr, Value: r.value, Tag: r.tag, Port: o.portNames[r.port],
		Prev: r.prev, Prev2: r.prev2,
	}
}

// pin records a never-evicted event (load-time classification roots).
func (o *Observer) pin(ev core.TaintEvent) uint64 {
	o.seq++
	ev.Seq = o.seq
	if o.now != nil {
		ev.Time = o.now()
	}
	o.pinned = append(o.pinned, ev)
	return ev.Seq
}

// event looks up a live event by sequence number: the ring slot it maps to
// (if not yet evicted) or the pinned list.
func (o *Observer) event(seq uint64) (core.TaintEvent, bool) {
	if seq == 0 || seq > o.seq {
		return core.TaintEvent{}, false
	}
	idx := int((seq - 1) % uint64(o.opts.RingCapacity))
	if c := o.ring[idx>>chunkShift]; c != nil && c[idx&(chunkLen-1)].seq == seq {
		return o.unpack(&c[idx&(chunkLen-1)]), true
	}
	i := sort.Search(len(o.pinned), func(i int) bool { return o.pinned[i].Seq >= seq })
	if i < len(o.pinned) && o.pinned[i].Seq == seq {
		return o.pinned[i], true
	}
	return core.TaintEvent{}, false
}

// Chain reconstructs the provenance chain ending at seq by walking the
// backward links, primary data lineage (Prev) first, bounded by
// Options.MaxChain. The result is ordered by sequence number: earliest
// event (typically the classification root) first, the given event last.
func (o *Observer) Chain(seq uint64) []core.TaintEvent {
	if seq == 0 {
		return nil
	}
	seen := make(map[uint64]bool, o.opts.MaxChain)
	out := make([]core.TaintEvent, 0, 8)
	stack := []uint64{seq}
	for len(stack) > 0 && len(out) < o.opts.MaxChain {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s == 0 || seen[s] {
			continue
		}
		seen[s] = true
		ev, ok := o.event(s)
		if !ok {
			continue // evicted: the chain terminates here
		}
		out = append(out, ev)
		// Push Prev last so the primary data lineage is explored first and
		// survives the MaxChain bound.
		stack = append(stack, ev.Prev2, ev.Prev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// ---------------------------------------------------------------------------
// Core hooks. Every method below is called by the VP+ core only behind a
// nil check on its Obs field — the hot path pays nothing when disabled.

// BeginInsn notes the instruction about to execute; subsequent events carry
// its pc and raw word. It also retires the pending jump provenance: pcSrc is
// only meaningful for the fetch-clearance check of the first instruction at
// an indirect-jump target.
func (o *Observer) BeginInsn(pc, insn uint32) {
	o.curPC, o.curInsn = pc, insn
	o.pcSrc = 0
}

// SetInsn updates the current-instruction diagnostics (pc and raw word)
// without the side effects of BeginInsn. Cold violation paths use it when
// they fire before the instruction's deferred BeginInsn has run.
func (o *Observer) SetInsn(pc, insn uint32) {
	o.curPC, o.curInsn = pc, insn
}

// AssignReg consumes the pending source event into the destination
// register's provenance slot. Called from the cores' register write path;
// writers that did not prime a source (lui, jal link, csr reads) clear it.
func (o *Observer) AssignReg(rd uint8) {
	s := o.pending
	o.pending = 0
	if rd != 0 {
		o.regSrc[rd] = s
	}
}

// OnLoad records a memory/bus read about to land in a register and primes
// the next register assignment with it. Loads of untracked default-class
// data record nothing (chains never pass through them anyway).
func (o *Observer) OnLoad(addr, size uint32, w core.Word) {
	prev := o.memSource(addr)
	if prev == 0 && w.T == o.def {
		o.pending = 0
		return
	}
	o.pending = o.emit(core.TaintEvent{
		Kind: core.EvLoad, PC: o.curPC, Insn: o.curInsn,
		Addr: addr, Value: w.V, Tag: w.T, Prev: prev,
	})
}

// OnOp records a computational step combining register tags (rs2 == 0xff
// for single-source immediate forms) and primes the next register
// assignment. Untracked all-default steps record nothing.
func (o *Observer) OnOp(rs1, rs2 uint8, v uint32, t core.Tag) {
	prev := o.regSrc[rs1]
	var prev2 uint64
	if rs2 != RegNone {
		prev2 = o.regSrc[rs2]
	}
	if prev == 0 && prev2 == 0 && t == o.def {
		o.pending = 0
		return
	}
	o.pending = o.emit(core.TaintEvent{
		Kind: core.EvOp, PC: o.curPC, Insn: o.curInsn,
		Value: v, Tag: t, Prev: prev, Prev2: prev2,
	})
}

// OnStore records a register value written to memory or a bus target and
// updates the written words' provenance. It always refreshes the
// destination slots — an untracked store over a previously tracked word
// must sever the old chain.
func (o *Observer) OnStore(addr, size uint32, src uint8, w core.Word) {
	prev := o.regSrc[src]
	if prev == 0 && w.T == o.def {
		for a := addr &^ 3; a < addr+size; a += 4 {
			o.setMemSource(a, 0)
		}
		o.lastOut = 0
		return
	}
	s := o.emit(core.TaintEvent{
		Kind: core.EvStore, PC: o.curPC, Insn: o.curInsn,
		Addr: addr, Value: w.V, Tag: w.T, Prev: prev,
	})
	for a := addr &^ 3; a < addr+size; a += 4 {
		o.setMemSource(a, s)
	}
	o.lastOut = s
}

// OnJump records an indirect control transfer (jalr with the source
// register, mret with rs == 0xff and the mepc chain unavailable). The event
// becomes the PC provenance consulted by the next fetch-clearance check, so
// a chain can cross an overflowed return address.
func (o *Observer) OnJump(target uint32, rs uint8, t core.Tag) {
	var prev uint64
	if rs != RegNone {
		prev = o.regSrc[rs]
	}
	if prev == 0 && t == o.def {
		o.pcSrc = 0
		return
	}
	o.pcSrc = o.emit(core.TaintEvent{
		Kind: core.EvJump, PC: o.curPC, Insn: o.curInsn,
		Value: target, Tag: t, Prev: prev,
	})
}

// RegSource returns the provenance seq of a register (for violation sites).
func (o *Observer) RegSource(r uint8) uint64 { return o.regSrc[r] }

// MemSource returns the provenance seq of the word containing addr.
func (o *Observer) MemSource(addr uint32) uint64 { return o.memSource(addr) }

// PCSource returns the provenance of the current PC (set by the last
// indirect jump, consumed by the next instruction).
func (o *Observer) PCSource() uint64 { return o.pcSrc }

// LastStore returns the seq of the most recent store event — the link
// between a CPU store to an output register and the peripheral's clearance
// check on the very same byte.
func (o *Observer) LastStore() uint64 { return o.lastOut }

// OnViolation records the failed clearance check as the chain's terminal
// event, reconstructs the provenance chain and attaches it to the
// violation. prev/prev2 are the source links appropriate to the check site
// (register, memory word, or last-store provenance).
func (o *Observer) OnViolation(v *core.Violation, prev, prev2 uint64) {
	s := o.emit(core.TaintEvent{
		Kind: core.EvCheck, PC: v.PC, Insn: o.curInsn,
		Addr: v.Addr, Value: v.Value, Tag: v.Have, Port: v.Port,
		Prev: prev, Prev2: prev2,
	})
	v.Provenance = o.Chain(s)
}

// ---------------------------------------------------------------------------
// Load-time and peripheral hooks.

// PinClassify records a load-time region classification as a pinned (never
// evicted) provenance root covering [start, end).
func (o *Observer) PinClassify(region string, start, end uint32, t core.Tag) {
	s := o.pin(core.TaintEvent{
		Kind: core.EvClassify, Addr: start, Value: end - start, Tag: t, Port: region,
	})
	for a := start &^ 3; a < end; a += 4 {
		o.setMemSource(a, s)
	}
}

// OnInput records data entering through a peripheral input port. off is the
// register offset within the device; if the device's base was registered,
// the covered words' provenance is defined so the CPU's subsequent MMIO
// load links to this event.
func (o *Observer) OnInput(dev string, off, n uint32, port string, v uint32, t core.Tag) {
	ev := core.TaintEvent{Kind: core.EvInput, Port: port, Value: v, Tag: t}
	if w, ok := o.ports[dev]; ok {
		ev.Addr = w.base + off
		s := o.emit(ev)
		for a := ev.Addr &^ 3; a < ev.Addr+n; a += 4 {
			o.setMemSource(a, s)
		}
		return
	}
	o.emit(ev)
}

// OnOutput records a byte leaving through an output port after passing its
// clearance check, linked to the store (or DMA burst) that delivered it.
func (o *Observer) OnOutput(port string, v byte, t core.Tag) {
	o.emit(core.TaintEvent{
		Kind: core.EvOutput, Port: port, Value: uint32(v), Tag: t, Prev: o.lastOut,
	})
}

// OnDMA records one burst of a DMA transfer, carrying the source words'
// provenance to the destination words.
func (o *Observer) OnDMA(dev string, src, dst, n uint32, t core.Tag) {
	s := o.emit(core.TaintEvent{
		Kind: core.EvDMA, Addr: dst, Value: n, Tag: t, Port: dev,
		Prev: o.memSource(src),
	})
	for a := dst &^ 3; a < dst+n; a += 4 {
		o.setMemSource(a, s)
	}
	o.lastOut = s
}

// OnDeclassify records the AES engine lowering the class of its output
// block, linked to the provenance of its input block.
func (o *Observer) OnDeclassify(dev string, inOff, inLen, outOff, outLen uint32, from, to core.Tag) {
	ev := core.TaintEvent{Kind: core.EvDeclassify, Tag: to, Value: uint32(from), Port: dev}
	w, ok := o.ports[dev]
	base := w.base
	if ok {
		ev.Addr = base + outOff
		for a := base + inOff; a < base+inOff+inLen; a += 4 {
			if s := o.memSource(a); s > ev.Prev {
				ev.Prev = s
			}
		}
	}
	s := o.emit(ev)
	if ok {
		for a := (base + outOff) &^ 3; a < base+outOff+outLen; a += 4 {
			o.setMemSource(a, s)
		}
	}
}

// BusPort is a bus range resolved for OnBus: a registered port's name and
// register window, or, for any other range, nothing to record. The
// platform's bus trace hook resolves each range once rather than looking
// its name up on every transaction.
type BusPort struct {
	dev string
	w   window
	ok  bool
}

// BusPort resolves the bus range named dev for OnBus. Register the ports
// first.
func (o *Observer) BusPort(dev string) BusPort {
	w, ok := o.ports[dev]
	return BusPort{dev, w, ok}
}

// OnBus counts a completed transaction inside a registered port's window
// and, when its class (the join of the payload's byte classes) is not the
// policy default, records it as a bus event. No event links to a bus
// event, so a default-class one (a status poll, say) would carry nothing a
// chain or a report can use. The platform calls it from the bus's trace
// hook with the decoded range and the payload at its global address; a
// transaction on any other range, or one the bus rejected before it
// reached the device (crossing the end of the window), counts nothing.
func (o *Observer) OnBus(port BusPort, p *tlm.Payload) {
	w, dev := port.w, port.dev
	if !port.ok || uint64(p.Addr)+uint64(len(p.Data)) > uint64(w.base)+uint64(w.size) {
		return
	}
	o.busTxns++
	kind := core.EvBusRead
	if p.Cmd == tlm.Write {
		kind = core.EvBusWrite
		o.busWrite += uint64(len(p.Data))
	} else {
		o.busRead += uint64(len(p.Data))
	}
	ev := core.TaintEvent{Kind: kind, Addr: p.Addr, Port: dev}
	for i, b := range p.Data {
		switch {
		case i == 0:
			ev.Tag = b.T
		case o.lat != nil:
			// The observer's own join: uncounted, so lub_ops and the
			// audit count the engine's joins only.
			ev.Tag = o.lat.PeekLUB(ev.Tag, b.T)
		case b.T > ev.Tag:
			ev.Tag = b.T
		}
		if i < 4 {
			ev.Value |= uint32(b.V) << (8 * i)
		}
	}
	if ev.Tag != o.def {
		o.emit(ev)
	}
}

// MetricsSnapshotInto writes every counter the observer holds (obs.* and
// bus.*) into dst, overwriting colliding keys and allocating nothing.
// soc.Platform.MetricsSnapshotInto, the one place a platform's metrics are
// assembled, calls it and adds the counts the observer does not keep
// (lub_ops, checks.*, violations.*, io.*); the telemetry sampler snapshots
// that once per simulated sampling period, so a multi-hour run must not
// churn one map per sample.
func (o *Observer) MetricsSnapshotInto(dst map[string]uint64) {
	dst["obs.events"] = o.seq
	dst["obs.evicted"] = o.evicted
	dst["obs.pinned"] = uint64(len(o.pinned))
	dst["bus.txns"] = o.busTxns
	dst["bus.read_bytes"] = o.busRead
	dst["bus.write_bytes"] = o.busWrite
}
