package periph

import (
	"fmt"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// DMA register map (byte offsets).
const (
	DMASrc    = 0x00 // source bus address
	DMADst    = 0x04 // destination bus address
	DMALen    = 0x08 // length in bytes
	DMACtrl   = 0x0C // write 1: start; read bit 0: busy
	DMAStatus = 0x10 // completed transfer count
	DMASize   = 0x14
)

// DMABytesPerUS is the modeled transfer throughput.
const DMABytesPerUS = 64

// maxDMALen bounds a single transfer; larger requests are a guest bug.
const maxDMALen = 1 << 20

// DMA is a memory-to-memory copy engine and the showcase of fine-grained
// HW/SW interaction tracking: it moves data over the bus as tainted bytes,
// so security tags propagate through DMA transfers exactly as through CPU
// copies — the flow the paper says source-level DIFT tools miss.
type DMA struct {
	env  *Env
	bus  *tlm.Bus
	name string

	src, dst, length uint32
	busy             bool
	done             uint32
	irq              func(bool)
}

// NewDMA creates the engine. Transfers are issued on the given bus; irq
// pulses on completion.
func NewDMA(env *Env, bus *tlm.Bus, name string, irq func(bool)) *DMA {
	return &DMA{env: env, bus: bus, name: name, irq: irq}
}

// Transport implements tlm.Target.
func (d *DMA) Transport(p *tlm.Payload, delay *kernel.Time) {
	transport(d, p, 10*kernel.NS, delay)
}

// Busy reports whether a transfer is in flight; a waveform probe point.
func (d *DMA) Busy() bool { return d.busy }

// Transfers returns the completed transfer count; a waveform probe point.
func (d *DMA) Transfers() uint32 { return d.done }

func (d *DMA) readByte(off uint32) (core.TByte, bool) {
	def := d.env.Default
	switch {
	case off < DMASrc+4:
		return regRead(d.src, def, off-DMASrc), true
	case off < DMADst+4:
		return regRead(d.dst, def, off-DMADst), true
	case off < DMALen+4:
		return regRead(d.length, def, off-DMALen), true
	case off < DMACtrl+4:
		var v uint32
		if d.busy {
			v = 1
		}
		return regRead(v, def, off-DMACtrl), true
	case off < DMAStatus+4:
		return regRead(d.done, def, off-DMAStatus), true
	default:
		return core.TByte{}, false
	}
}

func (d *DMA) writeByte(off uint32, b core.TByte) bool {
	switch {
	case off < DMASrc+4:
		d.src = regWrite(d.src, off-DMASrc, b.V)
	case off < DMADst+4:
		d.dst = regWrite(d.dst, off-DMADst, b.V)
	case off < DMALen+4:
		d.length = regWrite(d.length, off-DMALen, b.V)
	case off < DMACtrl+4:
		if off == DMACtrl && b.V&1 != 0 {
			d.start()
		}
	case off < DMAStatus+4:
		// read-only
	default:
		return false
	}
	return true
}

// start performs the copy and schedules the completion interrupt after the
// modeled transfer time.
func (d *DMA) start() {
	if d.busy {
		return
	}
	if d.length > maxDMALen {
		d.env.Sim.Fatal(fmt.Errorf("%s: transfer length %d exceeds limit", d.name, d.length))
		return
	}
	d.busy = true
	src, dst, n := d.src, d.dst, d.length
	// The copy happens through ordinary tainted bus transactions, chunked
	// like a real burst engine.
	var delay kernel.Time
	buf := make([]core.TByte, 64)
	for n > 0 {
		chunk := uint32(len(buf))
		if n < chunk {
			chunk = n
		}
		p := tlm.Payload{Cmd: tlm.Read, Addr: src, Data: buf[:chunk], From: d.name}
		d.bus.Transport(&p, &delay)
		if p.Resp != tlm.OK {
			d.env.Sim.Fatal(fmt.Errorf("%s: source read %s at 0x%08x", d.name, p.Resp, src))
			return
		}
		p = tlm.Payload{Cmd: tlm.Write, Addr: dst, Data: buf[:chunk], From: d.name}
		d.bus.Transport(&p, &delay)
		if p.Resp != tlm.OK {
			d.env.Sim.Fatal(fmt.Errorf("%s: destination write %s at 0x%08x", d.name, p.Resp, dst))
			return
		}
		if d.env.Obs != nil {
			d.env.Obs.OnDMA(d.name, src, dst, chunk, d.env.foldTags(buf[:chunk]))
		}
		src += chunk
		dst += chunk
		n -= chunk
	}
	transferTime := kernel.Time(d.length/DMABytesPerUS+1) * kernel.US
	d.env.Sim.After(transferTime, func() {
		d.busy = false
		d.done++
		if d.irq != nil {
			d.irq(true)
		}
	})
}
