package soc

// Post-mortem forensics: freezing the flight recorder's window into a
// self-contained bundle. The platform owns this step because it is the one
// layer that sees every ingredient at once — both core flavours' register
// files, the tainted RAM, the policy identity, and the stopping error.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"vpdift/internal/core"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/rv32"
	"vpdift/internal/telemetry"
)

// noteForensics reacts to Run's first terminal error: it appends the
// violating or faulting instruction as the window's last record (those
// instructions never retire, so the hot-loop capture missed them) and,
// unless FlightOff, stashes the bundle. Run calls it once, so re-running a
// stopped platform does not overwrite the original evidence.
func (pl *Platform) noteForensics(err error) {
	fr := pl.fr
	if fr == nil {
		return
	}
	reason := "error"
	var (
		v  *core.Violation
		be *rv32.BusError
		te *rv32.TrapError
		pe *kernel.PanicError
	)
	switch {
	case errors.As(err, &v):
		reason = "violation"
		fr.MarkViolation(pl.Instret(), v.PC, pl.insnAt(v.PC), v.Addr)
	case errors.As(err, &be):
		reason = "fault"
		fr.MarkFault(pl.Instret(), be.PC, pl.insnAt(be.PC), be.Addr)
	case errors.As(err, &te):
		reason = "fault"
		fr.MarkFault(pl.Instret(), te.PC, pl.insnAt(te.PC), te.Tval)
	case errors.As(err, &pe):
		reason = "panic"
	}
	if pl.cfg.Flight != nil {
		pl.lastBundle = pl.buildBundle(reason, err)
	}
}

// LastForensics returns the bundle stashed by the first terminal violation
// or fault, nil when the run never failed (or the recorder is off).
func (pl *Platform) LastForensics() *flight.Bundle { return pl.lastBundle }

// FlightRecorder returns the attached flight recorder, nil when disabled.
func (pl *Platform) FlightRecorder() *flight.Recorder { return pl.cfg.Flight }

// Snapshot builds a forensic bundle of the current platform state on
// demand — horizon expiry, operator request, or any stop that is not a
// terminal error. Returns nil when the recorder is off.
func (pl *Platform) Snapshot(reason string) *flight.Bundle {
	if pl.cfg.Flight == nil {
		return nil
	}
	if reason == "" {
		reason = "snapshot"
	}
	return pl.buildBundle(reason, nil)
}

// buildBundle assembles the flight.Snapshot from platform state and freezes
// the recorder's window through it.
func (pl *Platform) buildBundle(reason string, err error) *flight.Bundle {
	s := &flight.Snapshot{
		Reason:    reason,
		Version:   telemetry.Version,
		GoVersion: runtime.Version(),
		SimNs:     uint64(pl.Sim.Now()),
		Instret:   pl.Instret(),
		Exited:    pl.exited,
		ExitCode:  pl.exitCode,
		RAMBase:   RAMBase,
		RAMSize:   pl.cfg.RAMSize,
		Mem:       pl.memWindow,
		Disasm:    rv32.Disassemble,
		Metrics:   pl.MetricsSnapshot(),
	}
	s.PC, _ = pl.cpu.Position()
	if pl.Core != nil {
		for r := 0; r < 32; r++ {
			s.Regs[r] = flight.RegState{
				Name:  rv32.RegName(r),
				Value: flight.Hex32(pl.Core.Regs[r]),
			}
		}
	} else {
		lat, def := pl.policy.L, pl.policy.Default
		for r := 0; r < 32; r++ {
			w := pl.TaintCore.Regs[r]
			rs := flight.RegState{
				Name:  rv32.RegName(r),
				Value: flight.Hex32(w.V),
				Tag:   uint8(w.T),
			}
			if w.T != def {
				rs.Class = lat.Name(w.T)
			}
			s.Regs[r] = rs
		}
	}
	if pol := pl.policy; pol != nil {
		s.Policy = &flight.PolicyInfo{
			Classes: pol.L.Classes(),
			Default: pol.L.Name(pol.Default),
			Lattice: pol.L.String(),
		}
	}
	if err != nil {
		s.Violation, s.Fault = renderError(err)
	}
	return pl.cfg.Flight.Bundle(s)
}

// renderError classifies Run's stopping error into the bundle's violation /
// fault headline.
func renderError(err error) (*flight.ViolationInfo, *flight.FaultInfo) {
	var v *core.Violation
	if errors.As(err, &v) {
		vi := &flight.ViolationInfo{
			Kind:     v.Kind.String(),
			Have:     v.HaveClass(),
			Required: v.RequiredClass(),
			PC:       flight.Hex32(v.PC),
			Port:     v.Port,
			Message:  v.Error(),
		}
		if v.Addr != 0 {
			vi.Addr = flight.Hex32(v.Addr)
		}
		if v.Value != 0 {
			vi.Value = flight.Hex32(v.Value)
		}
		if rep := v.ProvenanceReport(nil); rep != "" {
			for _, line := range strings.Split(rep, "\n") {
				if line = strings.TrimSpace(line); line != "" {
					vi.Provenance = append(vi.Provenance, line)
				}
			}
		}
		return vi, nil
	}
	var be *rv32.BusError
	if errors.As(err, &be) {
		return nil, &flight.FaultInfo{
			Cause: "bus error: " + be.What,
			PC:    flight.Hex32(be.PC),
			Addr:  flight.Hex32(be.Addr),
		}
	}
	var te *rv32.TrapError
	if errors.As(err, &te) {
		return nil, &flight.FaultInfo{
			Cause: fmt.Sprintf("unhandled trap: cause=%d tval=0x%08x (mtvec not set)", te.Cause, te.Tval),
			PC:    flight.Hex32(te.PC),
		}
	}
	return nil, &flight.FaultInfo{Cause: err.Error()}
}

// insnAt refetches the instruction word at a bus address for the terminal
// mark; zero outside RAM.
func (pl *Platform) insnAt(pc uint32) uint32 {
	b, err := pl.ReadRAM(pc, 4)
	if err != nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// memWindow is the bundle builder's RAM reader: values on both platform
// flavours, per-byte tags on the VP+. Nil outside the RAM Load sized.
func (pl *Platform) memWindow(addr, size uint32) (data, tags []byte) {
	off := addr - RAMBase
	if addr < RAMBase || !pl.loaded || uint64(off)+uint64(size) > uint64(pl.cfg.RAMSize) {
		return nil, nil
	}
	data = make([]byte, size)
	if pl.Core != nil {
		copy(data, pl.plainRAM.Data()[off:])
		return data, nil
	}
	tags = make([]byte, size)
	for i, b := range pl.ram.Data()[off : off+size] {
		data[i], tags[i] = b.V, byte(b.T)
	}
	return data, tags
}
