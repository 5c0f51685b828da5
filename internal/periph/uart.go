package periph

import (
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// UART register map (byte offsets).
const (
	UARTTxData = 0x00 // write: transmit one byte (clearance checked)
	UARTRxData = 0x04 // read: bits 7:0 data, bit 31 set when FIFO empty
	UARTStatus = 0x08 // bit 0: RX data available; bit 1: TX ready (always 1)
	UARTSize   = 0x0C
)

// UARTRxEmpty is set in the RXDATA read value when the FIFO is empty.
const UARTRxEmpty = 1 << 31

// UART is the platform console. Host code injects RX bytes (classified per
// the policy's input classification) and reads the transmitted output. TX is
// an output interface in the sense of the paper: each transmitted byte is
// checked against the port's clearance.
type UART struct {
	env    *Env
	name   string
	txPort string // name+".tx"
	rxPort string // name+".rx", the input port

	txClearanceSet bool
	txClearance    core.Tag
	rxClass        core.Tag

	rxFIFO []core.TByte
	tx     []core.TByte

	// rxLatch holds the RXDATA word assembled when its first byte is read,
	// so multi-byte register reads see one consistent value.
	rxLatch    uint32
	rxLatchTag core.Tag

	irq func(level bool) // external interrupt line (level = RX available)
}

// NewUART creates a UART. name is the port prefix ("uart0"); the TX
// clearance comes from policy.Outputs[name+".tx"] via the platform builder,
// rxClass is the classification assigned to injected input.
func NewUART(env *Env, name string, irq func(bool)) *UART {
	return &UART{env: env, name: name, txPort: name + ".tx", rxPort: name + ".rx",
		rxClass: env.Default, irq: irq}
}

// SetTxClearance enables the TX output-clearance check.
func (u *UART) SetTxClearance(t core.Tag) { u.txClearanceSet = true; u.txClearance = t }

// SetRxClass sets the classification of injected input bytes.
func (u *UART) SetRxClass(t core.Tag) { u.rxClass = t }

// Inject queues console input; each byte is classified with the configured
// RX class. The RX interrupt line is raised while data is available.
func (u *UART) Inject(data []byte) {
	for _, b := range data {
		u.rxFIFO = append(u.rxFIFO, core.TByte{V: b, T: u.rxClass})
	}
	u.updateIRQ()
}

// InjectTagged queues console input with explicit per-byte tags; used by
// attack harnesses that model multiple input sources.
func (u *UART) InjectTagged(data []core.TByte) {
	u.rxFIFO = append(u.rxFIFO, data...)
	u.updateIRQ()
}

// Output returns everything transmitted so far as plain bytes.
func (u *UART) Output() []byte { return core.Values(u.tx) }

// OutputTagged returns the transmitted bytes with their tags.
func (u *UART) OutputTagged() []core.TByte { return append([]core.TByte(nil), u.tx...) }

// ClearOutput discards the TX log.
func (u *UART) ClearOutput() { u.tx = u.tx[:0] }

// RxPending returns the number of injected bytes the guest has not read yet;
// a waveform probe point.
func (u *UART) RxPending() int { return len(u.rxFIFO) }

// TxCount returns the number of bytes transmitted so far; a waveform probe
// point.
func (u *UART) TxCount() int { return len(u.tx) }

// LastTx returns the most recently transmitted byte (0 before any TX); a
// waveform probe point.
func (u *UART) LastTx() byte {
	if len(u.tx) == 0 {
		return 0
	}
	return u.tx[len(u.tx)-1].V
}

func (u *UART) updateIRQ() {
	if u.irq != nil {
		u.irq(len(u.rxFIFO) > 0)
	}
}

// Transport implements tlm.Target.
func (u *UART) Transport(p *tlm.Payload, delay *kernel.Time) {
	transport(u, p, 10*kernel.NS, delay)
}

func (u *UART) readByte(off uint32) (core.TByte, bool) {
	switch {
	case off >= UARTRxData && off < UARTRxData+4:
		j := off - UARTRxData
		// The LSB read pops the FIFO and latches the whole register value;
		// the remaining bytes of a word-sized read use the latch.
		if j == 0 {
			if len(u.rxFIFO) == 0 {
				u.rxLatch, u.rxLatchTag = UARTRxEmpty, u.env.Default
			} else {
				head := u.rxFIFO[0]
				u.rxFIFO = u.rxFIFO[1:]
				u.rxLatch, u.rxLatchTag = uint32(head.V), head.T
				u.env.delivered()
				if u.env.Obs != nil {
					u.env.Obs.OnInput(u.name, UARTRxData, 4, u.rxPort, uint32(head.V), head.T)
				}
				u.updateIRQ()
			}
		}
		return regRead(u.rxLatch, u.rxLatchTag, j), true
	case off >= UARTStatus && off < UARTStatus+4:
		var v uint32 = 1 << 1 // TX always ready
		if len(u.rxFIFO) > 0 {
			v |= 1
		}
		return regRead(v, u.env.Default, off-UARTStatus), true
	case off < UARTTxData+4:
		return regRead(0, u.env.Default, off-UARTTxData), true
	default:
		return core.TByte{}, false
	}
}

func (u *UART) writeByte(off uint32, b core.TByte) bool {
	switch {
	case off == UARTTxData:
		if !u.env.checkOutput(u.txPort, b, u.txClearanceSet, u.txClearance) {
			return true // simulation is stopping; complete the transaction
		}
		u.tx = append(u.tx, b)
		return true
	case off > UARTTxData && off < UARTTxData+4:
		return true // upper bytes of a word-sized TX write are ignored
	case off >= UARTRxData && off < UARTStatus+4:
		return true // read-only registers: writes ignored
	default:
		return false
	}
}
