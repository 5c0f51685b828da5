package flight

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// SchemaV1 identifies the forensic-bundle JSON layout. Consumers (vp-load,
// the CI forensics job) match it exactly before trusting any field.
const SchemaV1 = "vpdift.forensics/v1"

// memHalo is how many bytes of context a memory window extends on each side
// of a touched address.
const memHalo = 64

// memWindowCap bounds how many merged memory windows a bundle carries, so a
// window full of scattered accesses cannot balloon the artifact.
const memWindowCap = 32

// Bundle is a self-contained forensic artifact: everything needed to
// explain a verdict without re-running the simulation. Addresses and words
// are hex strings ("0x%08x") so the JSON reads like a debugger transcript.
type Bundle struct {
	Schema    string `json:"schema"`
	Reason    string `json:"reason"` // "violation", "fault", "horizon", "snapshot", ...
	Version   string `json:"version"`
	GoVersion string `json:"go_version,omitempty"`

	SimNs    uint64 `json:"sim_time_ns"`
	Instret  uint64 `json:"instret"`
	PC       string `json:"pc"`
	Exited   bool   `json:"exited"`
	ExitCode uint32 `json:"exit_code"`

	Policy    *PolicyInfo    `json:"policy,omitempty"`
	Violation *ViolationInfo `json:"violation,omitempty"`
	Fault     *FaultInfo     `json:"fault,omitempty"`

	Regs  []RegState  `json:"regs"`
	Trace []TraceRec  `json:"trace"`
	Mem   []MemWindow `json:"mem,omitempty"`

	Captured uint64 `json:"captured"`
	Dropped  uint64 `json:"dropped"`

	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// PolicyInfo identifies the information-flow policy the run enforced.
type PolicyInfo struct {
	Classes []string `json:"classes"`
	Default string   `json:"default"`
	Lattice string   `json:"lattice,omitempty"`
}

// ViolationInfo is the rendered terminal policy violation.
type ViolationInfo struct {
	Kind       string   `json:"kind"`
	Have       string   `json:"have"`
	Required   string   `json:"required"`
	PC         string   `json:"pc"`
	Addr       string   `json:"addr,omitempty"`
	Value      string   `json:"value,omitempty"`
	Port       string   `json:"port,omitempty"`
	Message    string   `json:"message"`
	Provenance []string `json:"provenance,omitempty"`
}

// FaultInfo is the rendered terminal guest fault.
type FaultInfo struct {
	Cause string `json:"cause"`
	PC    string `json:"pc"`
	Addr  string `json:"addr,omitempty"`
}

// RegState is one architectural register with its security tag (VP+; the
// baseline VP leaves Class empty and Tag zero).
type RegState struct {
	Name  string `json:"name"`
	Value string `json:"value"`
	Tag   uint8  `json:"tag"`
	Class string `json:"class,omitempty"`
}

// TraceRec is one rendered flight record.
type TraceRec struct {
	Seq     uint64 `json:"seq"` // instruction index at capture
	Kind    string `json:"kind"`
	PC      string `json:"pc,omitempty"`
	Insn    string `json:"insn,omitempty"`
	Disasm  string `json:"disasm,omitempty"`
	Addr    string `json:"addr,omitempty"`
	Note    string `json:"note,omitempty"` // rendered mark detail
	Taken   bool   `json:"taken,omitempty"`
	TaintRd bool   `json:"taint_rd,omitempty"`
}

// MemWindow is a hexdump of RAM around an address the trace window touched;
// Tags carries the per-byte security tags on the VP+.
type MemWindow struct {
	Start string `json:"start"`
	Data  string `json:"data"`
	Tags  string `json:"tags,omitempty"`
}

// Hex32 renders a 32-bit value the way every bundle field does.
func Hex32(v uint32) string { return fmt.Sprintf("0x%08x", v) }

// Snapshot carries the platform state the bundle builder needs. The
// function fields keep this package free of architecture imports: the
// platform passes its disassembler and a RAM reader instead of its types.
type Snapshot struct {
	Reason    string
	Version   string
	GoVersion string

	SimNs    uint64
	Instret  uint64
	PC       uint32
	Exited   bool
	ExitCode uint32

	Policy    *PolicyInfo
	Violation *ViolationInfo
	Fault     *FaultInfo

	Regs [32]RegState

	// RAMBase/RAMSize bound the memory windows; Mem copies size bytes of
	// RAM values (and tags, when tracked — nil otherwise) at a bus address
	// within those bounds.
	RAMBase uint32
	RAMSize uint32
	Mem     func(addr, size uint32) (data, tags []byte)

	// Disasm renders the instruction word w fetched from pc.
	Disasm func(w, pc uint32) string

	Metrics map[string]uint64
}

// Bundle freezes the recorder's current window into a forensic bundle and
// counts the emission.
func (r *Recorder) Bundle(s *Snapshot) *Bundle {
	r.bundles++
	b := &Bundle{
		Schema:    SchemaV1,
		Reason:    s.Reason,
		Version:   s.Version,
		GoVersion: s.GoVersion,
		SimNs:     s.SimNs,
		Instret:   s.Instret,
		PC:        Hex32(s.PC),
		Exited:    s.Exited,
		ExitCode:  s.ExitCode,
		Policy:    s.Policy,
		Violation: s.Violation,
		Fault:     s.Fault,
		Regs:      append([]RegState(nil), s.Regs[:]...),
		Captured:  r.Captured(),
		Dropped:   r.Dropped(),
		Metrics:   s.Metrics,
	}

	window := r.Window()
	b.Trace = make([]TraceRec, 0, len(window))
	var touched []uint32
	for _, rec := range window {
		t := TraceRec{Seq: rec.Time}
		switch rec.Kind {
		case KindRetire:
			t.Kind = "retire"
			t.PC = Hex32(rec.PC)
			t.Insn = Hex32(rec.Insn)
			if s.Disasm != nil {
				t.Disasm = s.Disasm(rec.Insn, rec.PC)
			}
			if rec.Flags&(FlagLoad|FlagStore) != 0 {
				t.Addr = Hex32(rec.Addr)
				touched = append(touched, rec.Addr)
			}
			t.Taken = rec.Flags&FlagTaken != 0
			t.TaintRd = rec.Flags&FlagTaintRd != 0
		case KindIRQ:
			t.Kind = "irq"
			t.Note = fmt.Sprintf("irq line 0x%x raised", rec.Aux)
		case KindTrap:
			t.Kind = "trap"
			t.PC = Hex32(rec.PC)
			t.Note = fmt.Sprintf("trap cause 0x%08x tval 0x%08x", rec.Insn, rec.Addr)
		case KindBus:
			t.Kind = "bus"
			t.Addr = Hex32(rec.Addr)
			dir := "read"
			if rec.Flags&FlagStore != 0 {
				dir = "write"
			}
			name := r.NameOf(rec.Aux)
			if name == "" {
				name = "unmapped"
			}
			t.Note = fmt.Sprintf("bus %s %s %dB", name, dir, rec.Insn)
		case KindFault:
			t.Kind = "fault"
			t.PC = Hex32(rec.PC)
			t.Insn = Hex32(rec.Insn)
			if s.Disasm != nil && rec.Insn != 0 {
				t.Disasm = s.Disasm(rec.Insn, rec.PC)
			}
			if rec.Addr != 0 {
				t.Addr = Hex32(rec.Addr)
				touched = append(touched, rec.Addr)
			}
		case KindViolation:
			t.Kind = "violation"
			t.PC = Hex32(rec.PC)
			t.Insn = Hex32(rec.Insn)
			if s.Disasm != nil && rec.Insn != 0 {
				t.Disasm = s.Disasm(rec.Insn, rec.PC)
			}
			if rec.Addr != 0 {
				t.Addr = Hex32(rec.Addr)
				touched = append(touched, rec.Addr)
			}
		default:
			t.Kind = "mark"
			t.Note = r.NameOf(rec.Aux)
		}
		b.Trace = append(b.Trace, t)
	}

	if s.Mem != nil && s.RAMSize > 0 {
		b.Mem = buildMemWindows(s, touched)
	}
	return b
}

// buildMemWindows merges ±memHalo windows around every touched RAM address
// and hex-dumps each through the snapshot's RAM reader.
func buildMemWindows(s *Snapshot, touched []uint32) []MemWindow {
	type span struct{ lo, hi uint64 }
	ramLo := uint64(s.RAMBase)
	ramHi := ramLo + uint64(s.RAMSize)
	spans := make([]span, 0, len(touched))
	for _, a := range touched {
		lo, hi := uint64(a), uint64(a)+1
		if lo < ramLo || lo >= ramHi {
			continue // MMIO and out-of-RAM addresses have no dumpable bytes
		}
		if lo-ramLo >= memHalo {
			lo -= memHalo
		} else {
			lo = ramLo
		}
		hi += memHalo
		if hi > ramHi {
			hi = ramHi
		}
		spans = append(spans, span{lo, hi})
	}
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	merged := spans[:1]
	for _, sp := range spans[1:] {
		if last := &merged[len(merged)-1]; sp.lo <= last.hi {
			if sp.hi > last.hi {
				last.hi = sp.hi
			}
		} else {
			merged = append(merged, sp)
		}
	}
	if len(merged) > memWindowCap {
		merged = merged[:memWindowCap]
	}
	out := make([]MemWindow, 0, len(merged))
	for _, sp := range merged {
		data, tags := s.Mem(uint32(sp.lo), uint32(sp.hi-sp.lo))
		if data == nil {
			continue
		}
		w := MemWindow{Start: Hex32(uint32(sp.lo)), Data: hex.EncodeToString(data)}
		if tags != nil {
			w.Tags = hex.EncodeToString(tags)
		}
		out = append(out, w)
	}
	return out
}

// JSON renders the bundle as indented, self-contained JSON.
func (b *Bundle) JSON() []byte {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		// Bundle contains only marshalable types; this cannot happen.
		panic(err)
	}
	return out
}

// ValidateBundle parses raw bundle JSON and checks its structural
// invariants: the schema identity, a non-empty reason, a full register
// file, kind-tagged trace records (retires carrying disassembly), and a
// capture count consistent with the window. This is what vp-load and the
// CI forensics job assert.
func ValidateBundle(raw []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("flight: bundle does not parse: %w", err)
	}
	if b.Schema != SchemaV1 {
		return nil, fmt.Errorf("flight: unknown bundle schema %q", b.Schema)
	}
	if b.Reason == "" {
		return nil, fmt.Errorf("flight: bundle has no reason")
	}
	if len(b.Regs) != 32 {
		return nil, fmt.Errorf("flight: bundle has %d registers, want 32", len(b.Regs))
	}
	if uint64(len(b.Trace)) > b.Captured {
		return nil, fmt.Errorf("flight: trace window (%d) exceeds capture count (%d)",
			len(b.Trace), b.Captured)
	}
	for i, t := range b.Trace {
		if t.Kind == "" {
			return nil, fmt.Errorf("flight: trace record %d has no kind", i)
		}
		if t.Kind == "retire" && t.Disasm == "" {
			return nil, fmt.Errorf("flight: retire record %d has no disassembly", i)
		}
	}
	for i, w := range b.Mem {
		if _, err := hex.DecodeString(w.Data); err != nil {
			return nil, fmt.Errorf("flight: mem window %d data is not hex: %w", i, err)
		}
		if w.Tags != "" {
			if _, err := hex.DecodeString(w.Tags); err != nil {
				return nil, fmt.Errorf("flight: mem window %d tags are not hex: %w", i, err)
			}
			if len(w.Tags) != len(w.Data) {
				return nil, fmt.Errorf("flight: mem window %d tag/data length mismatch", i)
			}
		}
	}
	return &b, nil
}
