package core

import (
	"fmt"
	"strings"
)

// TaintEventKind classifies one step of tag movement through the platform.
// The kinds mirror the places where the paper's DIFT engine touches tags:
// load-time classification, peripheral inputs, the core's load/compute/store
// propagation rules, control transfers steered by tainted registers, DMA
// bursts, AES declassification, output-port traffic, and the clearance
// checks themselves.
type TaintEventKind uint8

const (
	// EvClassify: a policy region rule assigned a class to a memory range at
	// load time — the root of most provenance chains.
	EvClassify TaintEventKind = iota + 1
	// EvInput: data entered the platform through a peripheral input port
	// (UART RX pop, CAN frame delivery, sensor frame refill).
	EvInput
	// EvLoad: the CPU read memory (or a bus target) into a register.
	EvLoad
	// EvOp: a computational instruction combined source-register tags.
	EvOp
	// EvStore: the CPU wrote a register value to memory or a bus target.
	EvStore
	// EvJump: a control transfer steered by a register (jalr, mret) — the
	// link that lets fetch-clearance chains cross an overwritten return
	// address.
	EvJump
	// EvDMA: the DMA engine moved a burst of tainted bytes.
	EvDMA
	// EvDeclassify: the AES engine lowered the ciphertext's class.
	EvDeclassify
	// EvOutput: a byte left the platform through an output port after
	// passing its clearance check.
	EvOutput
	// EvCheck: a clearance check failed; the terminal event of a violation's
	// provenance chain.
	EvCheck
	// EvBusRead / EvBusWrite: a TLM transaction on a data-carrying
	// peripheral completed (from the bus's trace hook). Value 11
	// belonged to a removed per-retire kind; the gap keeps these kinds'
	// numbers, which Chrome-trace exports use as thread ids, stable.
	EvBusRead TaintEventKind = iota + 2
	EvBusWrite
)

// String returns a short identifier for the kind.
func (k TaintEventKind) String() string {
	switch k {
	case EvClassify:
		return "classify"
	case EvInput:
		return "input"
	case EvLoad:
		return "load"
	case EvOp:
		return "op"
	case EvStore:
		return "store"
	case EvJump:
		return "jump"
	case EvDMA:
		return "dma"
	case EvDeclassify:
		return "declassify"
	case EvOutput:
		return "output"
	case EvCheck:
		return "check"
	case EvBusRead:
		return "bus-read"
	case EvBusWrite:
		return "bus-write"
	default:
		return fmt.Sprintf("event-kind(%d)", uint8(k))
	}
}

// MarshalJSON renders the kind as its string name in JSONL/trace exports.
func (k TaintEventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// TaintEvent is one recorded step of tag flow. Events form a backward-linked
// DAG: Prev (and, for two-source steps, Prev2) hold the sequence numbers of
// the events that produced this event's data. Seq 0 means "no recorded
// source" — the chain ends there.
type TaintEvent struct {
	Seq   uint64         `json:"seq"`
	Time  uint64         `json:"t_ns"` // simulated time in nanoseconds
	Kind  TaintEventKind `json:"kind"`
	PC    uint32         `json:"pc,omitempty"`    // program counter (0 when n/a)
	Insn  uint32         `json:"insn,omitempty"`  // raw instruction word (0 when n/a)
	Addr  uint32         `json:"addr,omitempty"`  // memory/bus address involved
	Value uint32         `json:"value,omitempty"` // data value moved
	Tag   Tag            `json:"tag"`             // class of the moved data
	Port  string         `json:"port,omitempty"`  // port/region name for I/O and classify events
	Prev  uint64         `json:"prev,omitempty"`  // seq of the data-source event
	Prev2 uint64         `json:"prev2,omitempty"` // seq of a second source (two-operand ops, control flow)
}

// Format renders the event as one human-readable line. l may be nil (tags
// print raw); annotate, when non-nil, can append extra context such as a
// disassembled instruction or a symbol name.
func (ev TaintEvent) Format(l *Lattice, annotate func(TaintEvent) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%-6d %10dns  %-10s", ev.Seq, ev.Time, ev.Kind)
	if ev.PC != 0 {
		fmt.Fprintf(&b, " pc=0x%08x", ev.PC)
	}
	if ev.Addr != 0 {
		fmt.Fprintf(&b, " addr=0x%08x", ev.Addr)
	}
	if ev.Kind != EvClassify {
		fmt.Fprintf(&b, " value=0x%x", ev.Value)
	}
	if l != nil {
		fmt.Fprintf(&b, " class=%s", l.Name(ev.Tag))
	} else {
		fmt.Fprintf(&b, " tag=%d", ev.Tag)
	}
	if ev.Port != "" {
		fmt.Fprintf(&b, " %q", ev.Port)
	}
	if ev.Prev != 0 {
		fmt.Fprintf(&b, " <-#%d", ev.Prev)
	}
	if ev.Prev2 != 0 {
		fmt.Fprintf(&b, ",#%d", ev.Prev2)
	}
	if annotate != nil {
		if extra := annotate(ev); extra != "" {
			b.WriteString("  ; ")
			b.WriteString(extra)
		}
	}
	return b.String()
}
