package tlm

import (
	"fmt"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

// Transaction is one observed bus access.
type Transaction struct {
	At   kernel.Time
	Cmd  Command
	Addr uint32
	Data []core.TByte // copy of the payload data after completion
	Resp Response
}

// String renders the transaction for logs.
func (t Transaction) String() string {
	return fmt.Sprintf("%v %s addr=0x%08x len=%d %s data=% x",
		t.At, t.Cmd, t.Addr, len(t.Data), t.Resp, core.Values(t.Data))
}

// Monitor wraps a Target and records its transactions — the analog of a
// TLM analysis port. It is inserted transparently between the bus and a
// target:
//
//	mon := tlm.NewMonitor(device, sim, 256)
//	bus.Map("dev", base, size, mon)
//
// Keep records small: every transaction copies its payload.
type Monitor struct {
	target Target
	sim    *kernel.Simulator
	limit  int
	log    []Transaction
	// buf backs a capped log: log is a window into it that slides forward
	// as records are dropped and moves back to the front when it reaches
	// the end, so the log never reallocates.
	buf     []Transaction
	dropped uint64
	// OnTransaction, when set, is invoked for every completed access.
	OnTransaction func(Transaction)
}

// NewMonitor wraps target, keeping at most limit records (older entries are
// discarded first; limit <= 0 keeps everything).
func NewMonitor(target Target, sim *kernel.Simulator, limit int) *Monitor {
	return &Monitor{target: target, sim: sim, limit: limit}
}

// Transport implements Target.
func (m *Monitor) Transport(p *Payload, delay *kernel.Time) {
	m.target.Transport(p, delay)
	tr := Transaction{
		Cmd:  p.Cmd,
		Addr: p.Addr,
		Data: append([]core.TByte(nil), p.Data...),
		Resp: p.Resp,
	}
	if m.sim != nil {
		tr.At = m.sim.Now()
	}
	if m.limit > 0 && len(m.log) == cap(m.log) {
		if m.buf == nil {
			m.buf = make([]Transaction, 0, 2*m.limit)
		}
		m.log = m.buf[:copy(m.buf[:len(m.log)], m.log)]
	}
	m.log = append(m.log, tr)
	if m.limit > 0 && len(m.log) > m.limit {
		m.dropped += uint64(len(m.log) - m.limit)
		m.log = m.log[len(m.log)-m.limit:]
	}
	if m.OnTransaction != nil {
		m.OnTransaction(tr)
	}
}

// Log returns the recorded transactions, oldest first.
func (m *Monitor) Log() []Transaction { return append([]Transaction(nil), m.log...) }

// Dropped reports how many transactions were silently discarded because the
// log exceeded its limit — nonzero means Log is a truncated view.
func (m *Monitor) Dropped() uint64 { return m.dropped }

// Reset clears the record. The dropped counter survives: it counts lifetime
// truncation, not current log state.
func (m *Monitor) Reset() { m.log = m.log[:0] }
