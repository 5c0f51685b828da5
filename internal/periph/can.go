package periph

import (
	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/tlm"
)

// CANFrame is a classic CAN 2.0 data frame (up to 8 payload bytes), with
// per-byte security tags.
type CANFrame struct {
	ID   uint32
	Data []core.TByte // length 0..8
}

// Clone deep-copies the frame.
func (f CANFrame) Clone() CANFrame {
	return CANFrame{ID: f.ID, Data: append([]core.TByte(nil), f.Data...)}
}

// CAN register map (byte offsets).
const (
	CANTxID   = 0x00 // TX frame ID
	CANTxLen  = 0x04 // TX payload length (0..8)
	CANTxData = 0x08 // 8 TX payload bytes
	CANTxCtrl = 0x10 // write 1: transmit
	CANRxID   = 0x14 // RX frame ID
	CANRxLen  = 0x18 // RX payload length; reads 0 when no frame
	CANRxData = 0x1C // 8 RX payload bytes
	CANRxCtrl = 0x24 // write 1: pop the received frame
	CANStatus = 0x28 // bit 0: RX frame available
	CANSize   = 0x2C
)

// CAN is the platform's CAN bus endpoint. The peer (e.g. the engine ECU of
// the immobilizer case study) lives on the host side: transmitted frames are
// passed to OnTransmit after the output-clearance check, and Deliver queues
// frames for the guest, classified by the configured RX class.
type CAN struct {
	env    *Env
	name   string
	txPort string // name+".tx"
	rxPort string // name+".rx", the input port

	txClearanceSet bool
	txClearance    core.Tag
	rxClass        core.Tag

	txID  uint32
	txLen uint32
	txBuf [8]core.TByte

	rxQueue []CANFrame
	irq     func(bool)

	// OnTransmit is invoked for every transmitted frame.
	OnTransmit func(CANFrame)
	// TxLog records all transmitted frames.
	TxLog []CANFrame
}

// NewCAN creates the endpoint; irq is the RX-available line.
func NewCAN(env *Env, name string, irq func(bool)) *CAN {
	return &CAN{env: env, name: name, txPort: name + ".tx", rxPort: name + ".rx",
		rxClass: env.Default, irq: irq}
}

// SetTxClearance enables the TX output-clearance check.
func (c *CAN) SetTxClearance(t core.Tag) { c.txClearanceSet = true; c.txClearance = t }

// SetRxClass sets the classification of delivered frames' bytes.
func (c *CAN) SetRxClass(t core.Tag) { c.rxClass = t }

// Deliver queues a frame from the bus peer. Plain bytes are classified with
// the RX class; pre-tagged frames keep their tags.
func (c *CAN) Deliver(id uint32, data []byte) {
	f := CANFrame{ID: id, Data: core.TagAll(data, c.rxClass)}
	c.rxQueue = append(c.rxQueue, f)
	c.noteDelivery(f)
	c.updateIRQ()
}

// DeliverTagged queues a frame with explicit tags.
func (c *CAN) DeliverTagged(f CANFrame) {
	f = f.Clone()
	c.rxQueue = append(c.rxQueue, f)
	c.noteDelivery(f)
	c.updateIRQ()
}

// noteDelivery counts the frame arrival and records it as an input event
// covering the RX payload registers, so a guest load of RXDATA links back
// to it.
func (c *CAN) noteDelivery(f CANFrame) {
	c.env.delivered()
	if c.env.Obs == nil {
		return
	}
	c.env.Obs.OnInput(c.name, CANRxData, 8, c.rxPort, f.ID, c.env.foldTags(f.Data))
}

func (c *CAN) updateIRQ() {
	if c.irq != nil {
		c.irq(len(c.rxQueue) > 0)
	}
}

// Transport implements tlm.Target.
func (c *CAN) Transport(p *tlm.Payload, delay *kernel.Time) {
	transport(c, p, 20*kernel.NS, delay)
}

func (c *CAN) rxHead() *CANFrame {
	if len(c.rxQueue) == 0 {
		return nil
	}
	return &c.rxQueue[0]
}

func (c *CAN) readByte(off uint32) (core.TByte, bool) {
	def := c.env.Default
	switch {
	case off < CANTxID+4:
		return regRead(c.txID, def, off-CANTxID), true
	case off < CANTxLen+4:
		return regRead(c.txLen, def, off-CANTxLen), true
	case off < CANTxData+8:
		return c.txBuf[off-CANTxData], true
	case off < CANTxCtrl+4:
		return regRead(0, def, off-CANTxCtrl), true
	case off < CANRxID+4:
		f := c.rxHead()
		if f == nil {
			return regRead(0, def, off-CANRxID), true
		}
		return regRead(f.ID, def, off-CANRxID), true
	case off < CANRxLen+4:
		f := c.rxHead()
		if f == nil {
			return regRead(0, def, off-CANRxLen), true
		}
		return regRead(uint32(len(f.Data)), def, off-CANRxLen), true
	case off < CANRxData+8:
		f := c.rxHead()
		j := off - CANRxData
		if f == nil || int(j) >= len(f.Data) {
			return core.TByte{V: 0, T: def}, true
		}
		return f.Data[j], true
	case off < CANRxCtrl+4:
		return regRead(0, def, off-CANRxCtrl), true
	case off < CANStatus+4:
		var v uint32
		if len(c.rxQueue) > 0 {
			v = 1
		}
		return regRead(v, def, off-CANStatus), true
	default:
		return core.TByte{}, false
	}
}

func (c *CAN) writeByte(off uint32, b core.TByte) bool {
	switch {
	case off < CANTxID+4:
		c.txID = regWrite(c.txID, off-CANTxID, b.V)
	case off < CANTxLen+4:
		c.txLen = regWrite(c.txLen, off-CANTxLen, b.V)
		if c.txLen > 8 {
			c.txLen = 8
		}
	case off < CANTxData+8:
		c.txBuf[off-CANTxData] = b
	case off < CANTxCtrl+4:
		if off == CANTxCtrl && b.V&1 != 0 {
			c.transmit()
		}
	case off < CANRxCtrl+4 && off >= CANRxCtrl:
		if off == CANRxCtrl && b.V&1 != 0 && len(c.rxQueue) > 0 {
			c.rxQueue = c.rxQueue[1:]
			c.updateIRQ()
		}
	case off < CANSize:
		// read-only registers: ignore writes
	default:
		return false
	}
	return true
}

// transmit checks each payload byte against the TX clearance, then hands the
// frame to the peer.
func (c *CAN) transmit() {
	f := CANFrame{ID: c.txID, Data: append([]core.TByte(nil), c.txBuf[:c.txLen]...)}
	for _, b := range f.Data {
		if !c.env.checkOutput(c.txPort, b, c.txClearanceSet, c.txClearance) {
			return
		}
	}
	c.TxLog = append(c.TxLog, f)
	if c.OnTransmit != nil {
		c.OnTransmit(f)
	}
}
