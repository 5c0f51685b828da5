// Package periph implements the SoC's hardware peripherals as TLM targets,
// mirroring the SystemC modules of the paper's virtual prototype:
//
//   - UART: byte console with RX classification and TX output-clearance
//     checks.
//   - Sensor: the paper's Fig. 4 peripheral — a 64-byte memory-mapped data
//     frame periodically refilled with data classified by a data_tag
//     register, raising an interrupt per frame.
//   - CLINT: RISC-V core-local interruptor (mtime/mtimecmp timer).
//   - IntC: a small external-interrupt controller (PLIC stand-in).
//   - DMA: memory-to-memory copy engine; tags travel with the data, so
//     taint flows through DMA transfers exactly as through CPU copies.
//   - CAN: frame-based bus endpoint with a host-side peer callback.
//   - AES: AES-128 engine (implemented from scratch) that encrypts a block
//     and *declassifies* the ciphertext, the paper's canonical
//     declassification use case.
//   - SysCtrl: power-off/exit-code register.
//
// Every peripheral carries tags on all data paths. Policy enforcement points
// (output clearance, configuration-register casts) report violations by
// stopping the simulation via kernel.Simulator.Fatal, the analog of the
// paper's ClearanceException.
package periph

import (
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/tlm"
)

// Env bundles what every peripheral needs: the simulator (time, events,
// fatal errors) and the security context. Lattice may be nil on the baseline
// platform — then all checks are disabled and tags are passed through
// untouched.
type Env struct {
	Sim *kernel.Simulator
	Lat *core.Lattice
	// Default is the tag for data originating in unclassified hardware.
	Default core.Tag
	// Obs, when non-nil, records peripheral I/O, declassification, and
	// clearance-check events for provenance chains; nil disables all
	// recording at zero cost (one branch per hook site).
	Obs *obs.Observer
	// Counts, when non-nil, is the policy's enforcement counter set: the
	// port clearance checks count into it per port, and the input ports
	// count their deliveries; nil disables counting (one branch per site).
	Counts *core.EnforcementCounts
}

// checkOutput enforces an output port clearance on one byte, stopping the
// simulation on violation. enabled is false when the port has no clearance
// assigned (or the platform is the baseline).
func (e *Env) checkOutput(port string, b core.TByte, enabled bool, required core.Tag) bool {
	if !enabled || e.Lat == nil {
		return true
	}
	if e.allowed(port, b.T, required) {
		if e.Obs != nil {
			e.Obs.OnOutput(port, b.V, b.T)
		}
		return true
	}
	v := core.NewViolation(e.Lat, core.KindOutputClearance, b.T, required).
		WithPort(port).WithValue(uint32(b.V))
	if e.Obs != nil {
		// The byte just reached the port from the CPU's store (or a DMA
		// write); chain the check through that last sink event.
		e.Obs.OnViolation(v, e.Obs.LastStore(), 0)
	}
	e.Sim.Fatal(v)
	return false
}

// allowed runs one port clearance check, counting it (and its violation)
// on the named port in the enforcement counter set.
func (e *Env) allowed(port string, t, required core.Tag) bool {
	ok := e.Lat.AllowedFlow(t, required)
	if e.Counts != nil {
		e.Counts.Port(port).Tally(ok)
	}
	return ok
}

// delivered counts one data delivery through an input port.
func (e *Env) delivered() {
	if e.Counts != nil {
		e.Counts.Inputs++
	}
}

// lub joins two tags, tolerating a nil lattice (baseline platform).
func (e *Env) lub(a, b core.Tag) core.Tag {
	if e.Lat == nil {
		return 0
	}
	return e.Lat.LUB(a, b)
}

// foldTags joins the tags of data from the first byte on, as
// Observer.OnBus folds a payload, for the observer's record of a transfer.
// It is the observer's join, not the engine's, so it is not counted; the
// policy default for no data and on the baseline platform.
func (e *Env) foldTags(data []core.TByte) core.Tag {
	if e.Lat == nil || len(data) == 0 {
		return e.Default
	}
	t := data[0].T
	for _, b := range data[1:] {
		t = e.Lat.PeekLUB(t, b.T)
	}
	return t
}

// byteDevice is a byte-addressable register file; the shared transport
// routine below adapts it to TLM. ok=false produces an address error.
type byteDevice interface {
	readByte(off uint32) (core.TByte, bool)
	writeByte(off uint32, b core.TByte) bool
}

// transport implements tlm.Target semantics over a byteDevice.
func transport(d byteDevice, p *tlm.Payload, accessDelay kernel.Time, delay *kernel.Time) {
	*delay += accessDelay
	switch p.Cmd {
	case tlm.Read:
		for i := range p.Data {
			b, ok := d.readByte(p.Addr + uint32(i))
			if !ok {
				p.Resp = tlm.AddressError
				return
			}
			p.Data[i] = b
		}
	case tlm.Write:
		for i := range p.Data {
			if !d.writeByte(p.Addr+uint32(i), p.Data[i]) {
				p.Resp = tlm.AddressError
				return
			}
		}
	default:
		p.Resp = tlm.CommandError
		return
	}
	p.Resp = tlm.OK
}

// regRead returns byte j of a 32-bit value with a tag.
func regRead(v uint32, t core.Tag, j uint32) core.TByte {
	return core.TByte{V: byte(v >> (8 * j)), T: t}
}

// regWrite replaces byte j of a 32-bit value.
func regWrite(v uint32, j uint32, b byte) uint32 {
	shift := 8 * j
	return v&^(0xff<<shift) | uint32(b)<<shift
}
