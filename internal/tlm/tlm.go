// Package tlm is the transaction-level-modeling layer of the virtual
// prototype — the Go substitute for SystemC TLM-2.0 generic payloads, sockets
// and the interconnect.
//
// The essential idea the paper relies on is reproduced here: the payload's
// data array carries *tainted* bytes (core.TByte), so security tags flow
// through every bus transaction — CPU to memory, CPU to peripheral, DMA to
// memory — without any peripheral-specific plumbing. Where the C++
// implementation casts a Taint<uint8_t> array into the generic payload's
// char* data pointer, we simply type the payload data as []core.TByte.
package tlm

import (
	"fmt"
	"sort"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// Command distinguishes read and write transactions, like
// tlm::tlm_command.
type Command int

const (
	// Read transfers data from the target into the payload.
	Read Command = iota
	// Write transfers payload data into the target.
	Write
)

// String returns "read" or "write".
func (c Command) String() string {
	if c == Read {
		return "read"
	}
	return "write"
}

// Response is the transaction completion status, like tlm::tlm_response_status.
type Response int

const (
	// OK: the transaction completed.
	OK Response = iota
	// AddressError: no target is mapped at the address, or the offset is
	// outside the target's register file.
	AddressError
	// CommandError: the target does not support the command at this offset
	// (e.g. write to a read-only register).
	CommandError
)

// String names the response status.
func (r Response) String() string {
	switch r {
	case OK:
		return "ok"
	case AddressError:
		return "address-error"
	case CommandError:
		return "command-error"
	default:
		return fmt.Sprintf("response(%d)", int(r))
	}
}

// Payload is the generic payload: command, address, tainted data, response.
// For Read commands the target fills Data; for Write commands the initiator
// provides it. Addr is rewritten by the Bus to be target-relative, like a
// TLM interconnect decoding the global address.
type Payload struct {
	Cmd  Command
	Addr uint32
	Data []core.TByte
	Resp Response
	// From optionally names the initiator ("cpu", "dma0") for bus tracing —
	// the analog of the TLM extension a transaction recorder would read.
	From string
}

// Target is a TLM target socket: anything reachable over the bus implements
// the blocking transport call. The delay pointer accumulates the
// transaction's timing annotation (loosely-timed style); targets may add
// their access latency to it.
type Target interface {
	Transport(p *Payload, delay *kernel.Time)
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(p *Payload, delay *kernel.Time)

// Transport implements Target.
func (f TargetFunc) Transport(p *Payload, delay *kernel.Time) { f(p, delay) }

// mapping is one bus decode entry covering [start, end). end is uint64 so a
// range may extend to the top of the 32-bit address space. id is the
// range's 1-based position in Map order.
type mapping struct {
	name   string
	id     int
	start  uint32
	end    uint64
	target Target
}

// Bus routes transactions to targets by address range, subtracting the range
// base so targets see local offsets. It is itself a Target, so buses can be
// cascaded. Routing is a binary search over the sorted ranges.
type Bus struct {
	maps []mapping
	// Trace, when non-nil, is invoked after every routed transaction with
	// the decoded range's id and name (0 and "" for unmapped addresses) and
	// the completed payload, its global address restored. A range's id is
	// its 1-based position in Map order and never changes, so a hook can
	// resolve what it needs of a range once and index it by id. One
	// predictable branch when nil.
	Trace func(rangeID int, rangeName string, p *Payload)
}

// NewBus creates an empty bus.
func NewBus() *Bus { return &Bus{} }

// Map attaches a target to the global address range [start, start+size).
// Ranges must not overlap and size must be nonzero; the end address must not
// wrap the 32-bit space.
func (b *Bus) Map(name string, start, size uint32, t Target) error {
	if size == 0 {
		return fmt.Errorf("bus: range %q is empty", name)
	}
	end := uint64(start) + uint64(size)
	if end > 1<<32 {
		return fmt.Errorf("bus: range %q [0x%x, +0x%x) wraps the address space", name, start, size)
	}
	if t == nil {
		return fmt.Errorf("bus: range %q has a nil target", name)
	}
	for _, ex := range b.maps {
		if uint64(start) < ex.end && uint64(ex.start) < end {
			return fmt.Errorf("bus: range %q [0x%x, 0x%x) overlaps %q [0x%x, 0x%x)",
				name, start, end, ex.name, ex.start, ex.end)
		}
	}
	b.maps = append(b.maps, mapping{name: name, id: len(b.maps) + 1, start: start, end: end, target: t})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].start < b.maps[j].start })
	return nil
}

// MustMap is Map that panics on error; for static platform construction.
func (b *Bus) MustMap(name string, start, size uint32, t Target) {
	if err := b.Map(name, start, size, t); err != nil {
		panic(err)
	}
}

// route finds the mapping covering addr.
func (b *Bus) route(addr uint32) *mapping {
	lo, hi := 0, len(b.maps)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.maps[mid].start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	m := &b.maps[lo-1]
	if uint64(addr) >= m.end {
		return nil
	}
	return m
}

// Transport routes the payload to the mapped target, rebasing the address.
// Transactions to unmapped addresses complete with AddressError, like a TLM
// interconnect returning TLM_ADDRESS_ERROR_RESPONSE.
func (b *Bus) Transport(p *Payload, delay *kernel.Time) {
	m := b.route(p.Addr)
	if m == nil {
		p.Resp = AddressError
		if b.Trace != nil {
			b.Trace(0, "", p)
		}
		return
	}
	// The full transfer must stay inside the range.
	if uint64(p.Addr)+uint64(len(p.Data)) > m.end {
		p.Resp = AddressError
		if b.Trace != nil {
			b.Trace(m.id, m.name, p)
		}
		return
	}
	global := p.Addr
	p.Addr -= m.start
	m.target.Transport(p, delay)
	p.Addr = global
	if b.Trace != nil {
		b.Trace(m.id, m.name, p)
	}
}

// RangeOf returns the name and bounds of the mapping covering addr, for
// diagnostics.
func (b *Bus) RangeOf(addr uint32) (name string, start uint32, end uint64, ok bool) {
	m := b.route(addr)
	if m == nil {
		return "", 0, 0, false
	}
	return m.name, m.start, m.end, true
}

// Ranges lists the mapped ranges in address order as "name [start, end)"
// strings; used by cmd/vp-run to dump the platform memory map.
func (b *Bus) Ranges() []string {
	out := make([]string, len(b.maps))
	for i, m := range b.maps {
		out[i] = fmt.Sprintf("%-8s [0x%08x, 0x%08x)", m.name, m.start, m.end)
	}
	return out
}

// ReadWord issues a 4-byte read transaction at addr and folds the result into
// a tainted word. Convenience for initiators (DMA, tests).
func (b *Bus) ReadWord(l *core.Lattice, addr uint32, delay *kernel.Time) (core.Word, Response) {
	var buf [4]core.TByte
	p := Payload{Cmd: Read, Addr: addr, Data: buf[:]}
	b.Transport(&p, delay)
	if p.Resp != OK {
		return core.Word{}, p.Resp
	}
	return core.WordFromBytes(l, buf[:]), OK
}

// WriteWord issues a 4-byte write transaction at addr.
func (b *Bus) WriteWord(w core.Word, addr uint32, delay *kernel.Time) Response {
	var buf [4]core.TByte
	w.Bytes(buf[:])
	p := Payload{Cmd: Write, Addr: addr, Data: buf[:]}
	b.Transport(&p, delay)
	return p.Resp
}
