package trace

import (
	"encoding/json"
	"io"

	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// EventKind discriminates recorded simulation-side events.
type EventKind uint8

// Simulation-side event kinds.
const (
	// EvThreadSpawn: a kernel process was created.
	EvThreadSpawn EventKind = iota + 1
	// EvThreadRun: the scheduler dispatched a process.
	EvThreadRun
	// EvThreadPause: a process callback returned to the scheduler.
	EvThreadPause
	// EvThreadWake: a process was scheduled to resume at Event.To.
	EvThreadWake
	// EvNotify: an sc_event-style notification fired.
	EvNotify
	// EvTimeAdvance: the simulated clock moved; work between two advances at
	// one timestamp forms that timestamp's delta cycles.
	EvTimeAdvance
	// EvBusTxn: a TLM bus transaction completed.
	EvBusTxn
)

// String returns a short identifier for the kind.
func (k EventKind) String() string {
	switch k {
	case EvThreadSpawn:
		return "spawn"
	case EvThreadRun:
		return "run"
	case EvThreadPause:
		return "pause"
	case EvThreadWake:
		return "wake"
	case EvNotify:
		return "notify"
	case EvTimeAdvance:
		return "advance"
	case EvBusTxn:
		return "bus"
	default:
		return "event"
	}
}

// MarshalText renders the kind name into JSON exports.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded kernel or bus occurrence. Field use by kind:
//
//   - thread events: Name is the process name; To is the wake-up time for
//     EvThreadWake.
//   - EvNotify: Name is the event name, To the delivery time, Waiters the
//     number of woken processes.
//   - EvTimeAdvance: At -> To is the clock step.
//   - EvBusTxn: Name is the decoded bus range ("" for unmapped), From the
//     initiator, Cmd/Addr/Len/Resp describe the completed payload.
type Event struct {
	Seq     uint64    `json:"seq"`
	Kind    EventKind `json:"kind"`
	At      uint64    `json:"at"` // simulated ns
	Name    string    `json:"name,omitempty"`
	To      uint64    `json:"to,omitempty"`
	Waiters int       `json:"waiters,omitempty"`
	From    string    `json:"from,omitempty"`
	Cmd     string    `json:"cmd,omitempty"`
	Addr    uint32    `json:"addr,omitempty"`
	Len     int       `json:"len,omitempty"`
	Resp    string    `json:"resp,omitempty"`
}

// DefaultKernelLimit bounds the kernel-trace ring buffer.
const DefaultKernelLimit = 1 << 20

// KernelTrace records the simulation side of the platform — scheduler
// activity and TLM bus transactions — the visibility a SystemC VP gets from
// its kernel's process tracing. It implements kernel.Tracer; attach it via
// trace.Trace and soc.Config.Trace. Events live in a bounded ring: once
// Limit entries are recorded, each new event evicts the oldest (counted by
// Dropped), so arbitrarily long runs stay bounded.
type KernelTrace struct {
	limit   int
	ring    []Event
	seq     uint64
	dropped uint64
}

// NewKernelTrace creates a recorder keeping at most limit events (<= 0 means
// DefaultKernelLimit).
func NewKernelTrace(limit int) *KernelTrace {
	if limit <= 0 {
		limit = DefaultKernelLimit
	}
	return &KernelTrace{limit: limit}
}

func (k *KernelTrace) emit(ev Event) {
	k.seq++
	ev.Seq = k.seq
	if len(k.ring) < k.limit {
		k.ring = append(k.ring, ev)
		return
	}
	k.ring[int((ev.Seq-1)%uint64(k.limit))] = ev
	k.dropped++
}

// ThreadSpawn implements kernel.Tracer.
func (k *KernelTrace) ThreadSpawn(name string, at kernel.Time) {
	k.emit(Event{Kind: EvThreadSpawn, At: uint64(at), Name: name})
}

// ThreadRun implements kernel.Tracer.
func (k *KernelTrace) ThreadRun(name string, at kernel.Time) {
	k.emit(Event{Kind: EvThreadRun, At: uint64(at), Name: name})
}

// ThreadPause implements kernel.Tracer.
func (k *KernelTrace) ThreadPause(name string, at kernel.Time) {
	k.emit(Event{Kind: EvThreadPause, At: uint64(at), Name: name})
}

// ThreadWake implements kernel.Tracer.
func (k *KernelTrace) ThreadWake(name string, at, wakeAt kernel.Time) {
	k.emit(Event{Kind: EvThreadWake, At: uint64(at), Name: name, To: uint64(wakeAt)})
}

// EventNotify implements kernel.Tracer.
func (k *KernelTrace) EventNotify(event string, at, deliverAt kernel.Time, waiters int) {
	k.emit(Event{Kind: EvNotify, At: uint64(at), Name: event, To: uint64(deliverAt), Waiters: waiters})
}

// TimeAdvance implements kernel.Tracer.
func (k *KernelTrace) TimeAdvance(from, to kernel.Time) {
	k.emit(Event{Kind: EvTimeAdvance, At: uint64(from), To: uint64(to)})
}

// OnBus records one routed bus transaction, at simulated time at, with its
// decoded range name, initiator, and completion status. The platform calls
// it from the bus's trace hook.
func (k *KernelTrace) OnBus(at kernel.Time, rangeName string, p *tlm.Payload) {
	k.emit(Event{
		Kind: EvBusTxn, At: uint64(at), Name: rangeName,
		From: p.From, Cmd: p.Cmd.String(), Addr: p.Addr,
		Len: len(p.Data), Resp: p.Resp.String(),
	})
}

// Events returns the live events in sequence order.
func (k *KernelTrace) Events() []Event {
	out := make([]Event, 0, len(k.ring))
	if k.seq <= uint64(len(k.ring)) {
		return append(out, k.ring...)
	}
	// Ring wrapped: the oldest live event sits just past the newest slot.
	start := int(k.seq % uint64(k.limit))
	out = append(out, k.ring[start:]...)
	out = append(out, k.ring[:start]...)
	return out
}

// EventCount returns the total number of events recorded, evicted included.
func (k *KernelTrace) EventCount() uint64 { return k.seq }

// Dropped returns how many events were evicted from the ring.
func (k *KernelTrace) Dropped() uint64 { return k.dropped }

// WriteJSONL streams the live events as one JSON object per line. The output
// is deterministic: two identical simulations produce byte-identical streams.
func (k *KernelTrace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range k.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
