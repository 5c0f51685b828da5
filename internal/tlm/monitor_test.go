package tlm

import (
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
)

func TestMonitorRecordsTransactions(t *testing.T) {
	sim := kernel.New()
	defer sim.Shutdown()
	sim.At(42*kernel.NS, func() {})
	if err := sim.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}

	ram := make([]core.TByte, 16)
	dev := TargetFunc(func(p *Payload, d *kernel.Time) {
		switch p.Cmd {
		case Read:
			copy(p.Data, ram[p.Addr:])
		case Write:
			copy(ram[p.Addr:], p.Data)
		}
		p.Resp = OK
	})
	var seen []Transaction
	mon := NewMonitor(dev, sim, 3)
	mon.OnTransaction = func(tr Transaction) { seen = append(seen, tr) }

	bus := NewBus()
	bus.MustMap("dev", 0x1000, 16, mon)

	var delay kernel.Time
	if resp := bus.WriteWord(core.W(0xAABBCCDD, 1), 0x1004, &delay); resp != OK {
		t.Fatal(resp)
	}
	if _, resp := bus.ReadWord(core.IFP1(), 0x1004, &delay); resp != OK {
		t.Fatal(resp)
	}

	log := mon.Log()
	if len(log) != 2 || len(seen) != 2 {
		t.Fatalf("log=%d seen=%d", len(log), len(seen))
	}
	if log[0].Cmd != Write || log[0].Addr != 4 || log[0].At != 42*kernel.NS {
		t.Errorf("write record = %+v", log[0])
	}
	if log[1].Cmd != Read || log[1].Data[0].V != 0xDD || log[1].Data[0].T != 1 {
		t.Errorf("read record = %+v (tags must be recorded)", log[1])
	}
	if !strings.Contains(log[0].String(), "write addr=0x00000004") {
		t.Errorf("String() = %q", log[0].String())
	}

	// Limit: issue more transactions than the cap.
	for i := 0; i < 5; i++ {
		bus.WriteWord(core.W(uint32(i), 0), 0x1000, &delay)
	}
	if got := len(mon.Log()); got != 3 {
		t.Errorf("log length = %d, want capped 3", got)
	}
	mon.Reset()
	if len(mon.Log()) != 0 {
		t.Error("Reset must clear the log")
	}
}

func TestMonitorDropped(t *testing.T) {
	dev := TargetFunc(func(p *Payload, d *kernel.Time) { p.Resp = OK })
	mon := NewMonitor(dev, nil, 2)
	var delay kernel.Time
	issue := func(n int) {
		for i := 0; i < n; i++ {
			p := Payload{Cmd: Read, Data: make([]core.TByte, 1)}
			mon.Transport(&p, &delay)
		}
	}
	issue(2)
	if got := mon.Dropped(); got != 0 {
		t.Fatalf("dropped = %d before exceeding the limit", got)
	}
	issue(5)
	if got := mon.Dropped(); got != 5 {
		t.Fatalf("dropped = %d, want 5", got)
	}
	if len(mon.Log()) != 2 {
		t.Fatalf("log length = %d, want capped 2", len(mon.Log()))
	}
	// Dropped is a lifetime counter: Reset clears the log, not the count.
	mon.Reset()
	if got := mon.Dropped(); got != 5 {
		t.Fatalf("dropped = %d after Reset, want 5", got)
	}
	issue(3)
	if got := mon.Dropped(); got != 6 {
		t.Fatalf("dropped = %d after refill, want 6", got)
	}
}

func TestMonitorUnlimited(t *testing.T) {
	dev := TargetFunc(func(p *Payload, d *kernel.Time) { p.Resp = OK })
	mon := NewMonitor(dev, nil, 0)
	var delay kernel.Time
	for i := 0; i < 300; i++ {
		p := Payload{Cmd: Read, Data: make([]core.TByte, 1)}
		mon.Transport(&p, &delay)
	}
	if len(mon.Log()) != 300 {
		t.Errorf("unlimited log length = %d", len(mon.Log()))
	}
}

// TestMonitorLimitKeepsLog checks that a capped log keeps its backing array
// (a transaction costs one allocation, the copy of its data) and still holds
// the newest records in order.
func TestMonitorLimitKeepsLog(t *testing.T) {
	dev := TargetFunc(func(p *Payload, d *kernel.Time) { p.Resp = OK })
	for _, limit := range []int{1, 4} {
		mon := NewMonitor(dev, nil, limit)
		p := &Payload{Cmd: Read, Data: make([]core.TByte, 4)}
		var delay kernel.Time
		next := uint32(0)
		step := func() {
			p.Addr = next
			next++
			mon.Transport(p, &delay)
		}
		step()
		if n := testing.AllocsPerRun(100, step); n > 1 {
			t.Errorf("limit %d: Transport allocated %v times per call, want 1", limit, n)
		}
		log := mon.Log()
		if len(log) != limit || mon.Dropped() != uint64(int(next)-limit) {
			t.Fatalf("limit %d: %d records, %d dropped after %d transactions", limit, len(log), mon.Dropped(), next)
		}
		for i, tr := range log {
			if want := next - uint32(limit-i); tr.Addr != want {
				t.Errorf("limit %d: record %d has addr %d, want %d", limit, i, tr.Addr, want)
			}
		}
	}
}
