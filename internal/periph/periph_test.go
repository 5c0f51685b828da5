package periph

import (
	"bytes"
	"crypto/aes"
	"errors"
	"testing"
	"testing/quick"

	"vpdift/internal/core"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/tlm"
)

// newEnv builds a peripheral environment over IFP-3 (or nil lattice when
// baseline is true).
func newEnv(baseline bool) (*Env, *core.Lattice) {
	sim := kernel.New()
	if baseline {
		return &Env{Sim: sim}, nil
	}
	l := core.IFP3()
	return &Env{Sim: sim, Lat: l, Default: l.MustTag("(LC,LI)")}, l
}

// rw is a test helper issuing a word transaction.
func rw(t *testing.T, tgt tlm.Target, cmd tlm.Command, addr uint32, data []core.TByte) tlm.Response {
	t.Helper()
	var delay kernel.Time
	p := tlm.Payload{Cmd: cmd, Addr: addr, Data: data}
	tgt.Transport(&p, &delay)
	return p.Resp
}

func readWord(t *testing.T, l *core.Lattice, tgt tlm.Target, addr uint32) core.Word {
	t.Helper()
	var buf [4]core.TByte
	if resp := rw(t, tgt, tlm.Read, addr, buf[:]); resp != tlm.OK {
		t.Fatalf("read at 0x%x: %v", addr, resp)
	}
	if l == nil {
		l = core.IFP1()
	}
	return core.WordFromBytes(l, buf[:])
}

func writeWord(t *testing.T, tgt tlm.Target, addr uint32, w core.Word) {
	t.Helper()
	var buf [4]core.TByte
	w.Bytes(buf[:])
	if resp := rw(t, tgt, tlm.Write, addr, buf[:]); resp != tlm.OK {
		t.Fatalf("write at 0x%x: %v", addr, resp)
	}
}

// ------------------------------------------------------------------ UART --

func TestUARTTransmitAndClearance(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	u := NewUART(env, "uart0", nil)
	u.SetTxClearance(l.MustTag("(LC,LI)"))

	// Public byte passes.
	writeWord(t, u, UARTTxData, core.W('A', env.Default))
	if string(u.Output()) != "A" {
		t.Fatalf("output = %q", u.Output())
	}
	// Confidential byte violates.
	writeWord(t, u, UARTTxData, core.W('S', l.MustTag("(HC,HI)")))
	err := env.Sim.Err()
	var v *core.Violation
	if !errors.As(err, &v) || v.Kind != core.KindOutputClearance || v.Port != "uart0.tx" {
		t.Fatalf("err = %v, want uart0.tx output violation", err)
	}
	if string(u.Output()) != "A" {
		t.Error("violating byte must not be transmitted")
	}
	if tagged := u.OutputTagged(); len(tagged) != 1 || tagged[0].V != 'A' {
		t.Error("OutputTagged mismatch")
	}
	u.ClearOutput()
	if len(u.Output()) != 0 {
		t.Error("ClearOutput")
	}
}

func TestUARTReceive(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var irqLevel bool
	u := NewUART(env, "uart0", func(lv bool) { irqLevel = lv })
	li := l.MustTag("(LC,LI)")
	u.SetRxClass(li)

	if w := readWord(t, l, u, UARTRxData); w.V&UARTRxEmpty == 0 {
		t.Error("empty FIFO must read with the empty flag")
	}
	if w := readWord(t, l, u, UARTStatus); w.V&1 != 0 {
		t.Error("status must show no RX data")
	}
	u.Inject([]byte("hi"))
	if !irqLevel {
		t.Error("RX IRQ must raise on inject")
	}
	if w := readWord(t, l, u, UARTStatus); w.V&1 == 0 || w.V&2 == 0 {
		t.Error("status must show RX data and TX ready")
	}
	w := readWord(t, l, u, UARTRxData)
	if w.V != 'h' || w.T != li {
		t.Errorf("rx = %v", w)
	}
	w = readWord(t, l, u, UARTRxData)
	if w.V != 'i' {
		t.Errorf("rx = %v", w)
	}
	if !func() bool { w := readWord(t, l, u, UARTRxData); return w.V&UARTRxEmpty != 0 }() {
		t.Error("FIFO must be empty again")
	}
	if irqLevel {
		t.Error("RX IRQ must drop when drained")
	}

	hc := l.MustTag("(HC,HI)")
	u.InjectTagged([]core.TByte{{V: 'x', T: hc}})
	if w := readWord(t, l, u, UARTRxData); w.T != hc {
		t.Error("InjectTagged must keep tags")
	}
}

func TestUARTAddressError(t *testing.T) {
	env, _ := newEnv(false)
	defer env.Sim.Shutdown()
	u := NewUART(env, "uart0", nil)
	var buf [1]core.TByte
	if resp := rw(t, u, tlm.Read, UARTSize+4, buf[:]); resp != tlm.AddressError {
		t.Errorf("resp = %v", resp)
	}
	if resp := rw(t, u, tlm.Write, UARTSize+4, buf[:]); resp != tlm.AddressError {
		t.Errorf("resp = %v", resp)
	}
}

// ---------------------------------------------------------------- Sensor --

func TestSensorGeneratesTaggedFrames(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	irqs := 0
	s := NewSensor(env, "sensor0", func(lv bool) {
		if lv {
			irqs++
		}
	})
	hc := l.MustTag("(HC,LI)")
	s.SetDataTag(hc)

	if err := env.Sim.Run(100 * kernel.MS); err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 4 || irqs != 4 {
		t.Errorf("frames = %d irqs = %d, want 4 each (25ms period over 100ms)", s.Frames(), irqs)
	}
	w := readWord(t, l, s, SensorFrame)
	if w.T != hc {
		t.Errorf("frame data tag = %s, want (HC,LI)", l.Name(w.T))
	}
	var b [1]core.TByte
	rw(t, s, tlm.Read, SensorFrame+63, b[:])
	if b[0].T != hc {
		t.Error("last frame byte must carry the data tag")
	}
	if b[0].V < 32 || b[0].V > 127 {
		t.Errorf("frame data %d not printable", b[0].V)
	}
}

func TestSensorDataTagRegister(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	s := NewSensor(env, "sensor0", nil)
	hc := l.MustTag("(HC,LI)")

	// Public write reconfigures the class.
	var b [1]core.TByte
	b[0] = core.B(byte(hc), env.Default)
	if resp := rw(t, s, tlm.Write, SensorDataTag, b[:]); resp != tlm.OK {
		t.Fatal(resp)
	}
	rb := [1]core.TByte{}
	rw(t, s, tlm.Read, SensorDataTag, rb[:])
	if rb[0].V != byte(hc) || rb[0].T != env.Default {
		t.Errorf("data_tag readback = %+v", rb[0])
	}

	// Tainted write to the config register violates (Fig. 4 line 47 cast).
	b[0] = core.B(0, l.MustTag("(HC,HI)"))
	rw(t, s, tlm.Write, SensorDataTag, b[:])
	var v *core.Violation
	if !errors.As(env.Sim.Err(), &v) {
		t.Fatalf("err = %v, want violation on tainted config write", env.Sim.Err())
	}

	// Out-of-range class value is ignored.
	env2, _ := newEnv(false)
	defer env2.Sim.Shutdown()
	s2 := NewSensor(env2, "sensor0", nil)
	b[0] = core.B(200, env2.Default)
	rw(t, s2, tlm.Write, SensorDataTag, b[:])
	rw(t, s2, tlm.Read, SensorDataTag, rb[:])
	if rb[0].V == 200 {
		t.Error("out-of-range class must not be accepted")
	}
}

func TestSensorFrameWritable(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	s := NewSensor(env, "sensor0", nil)
	hc := l.MustTag("(HC,HI)")
	var b [1]core.TByte
	b[0] = core.B(0x7f, hc)
	if resp := rw(t, s, tlm.Write, SensorFrame+5, b[:]); resp != tlm.OK {
		t.Fatal(resp)
	}
	rb := [1]core.TByte{}
	rw(t, s, tlm.Read, SensorFrame+5, rb[:])
	if rb[0] != b[0] {
		t.Error("frame write must keep value and tag")
	}
	if resp := rw(t, s, tlm.Read, SensorSize, rb[:]); resp != tlm.AddressError {
		t.Error("past-end read must fail")
	}
}

// ----------------------------------------------------------------- CLINT --

func TestCLINTTimer(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var mtip bool
	c := NewCLINT(env, func(lv bool) { mtip = lv }, nil)

	if got := readWord(t, l, c, CLINTMtime); got.V != 0 {
		t.Errorf("mtime at t=0 = %d", got.V)
	}
	// Set mtimecmp to 100 µs.
	writeWord(t, c, CLINTMtimecmp, core.W(100, env.Default))
	writeWord(t, c, CLINTMtimecmp+4, core.W(0, env.Default))
	if mtip {
		t.Fatal("MTIP must be low before expiry")
	}
	if err := env.Sim.Run(99 * kernel.US); err != nil {
		t.Fatal(err)
	}
	if mtip {
		t.Fatal("MTIP raised too early")
	}
	if err := env.Sim.Run(101 * kernel.US); err != nil {
		t.Fatal(err)
	}
	if !mtip {
		t.Fatal("MTIP must raise at mtimecmp")
	}
	if got := readWord(t, l, c, CLINTMtime); got.V != 101 {
		t.Errorf("mtime = %d, want 101", got.V)
	}
	// Rewriting mtimecmp into the future drops the line.
	writeWord(t, c, CLINTMtimecmp, core.W(500, env.Default))
	if mtip {
		t.Error("MTIP must drop when mtimecmp moves to the future")
	}
	// Readback.
	if got := readWord(t, l, c, CLINTMtimecmp); got.V != 500 {
		t.Errorf("mtimecmp readback = %d", got.V)
	}
}

func TestCLINTImmediateExpiry(t *testing.T) {
	env, _ := newEnv(false)
	defer env.Sim.Shutdown()
	var mtip bool
	c := NewCLINT(env, func(lv bool) { mtip = lv }, nil)
	// mtimecmp = 0 expires immediately.
	writeWord(t, c, CLINTMtimecmp+4, core.W(0, env.Default))
	writeWord(t, c, CLINTMtimecmp, core.W(0, env.Default))
	if !mtip {
		t.Error("MTIP must raise for an already-expired compare")
	}
}

func TestCLINTMsip(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var msip bool
	c := NewCLINT(env, func(bool) {}, func(lv bool) { msip = lv })
	writeWord(t, c, CLINTMsip, core.W(1, env.Default))
	if !msip {
		t.Error("MSIP must follow the msip register")
	}
	if got := readWord(t, l, c, CLINTMsip); got.V != 1 {
		t.Error("msip readback")
	}
	writeWord(t, c, CLINTMsip, core.W(0, env.Default))
	if msip {
		t.Error("MSIP must drop")
	}
}

// ------------------------------------------------------------------ IntC --

func TestIntCClaimPriority(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var meip bool
	ic := NewIntC(env, func(lv bool) { meip = lv })

	ic.SetSource(5, true)
	if meip {
		t.Fatal("MEIP must stay low while the source is disabled")
	}
	writeWord(t, ic, IntCEnable, core.W(1<<5|1<<3, env.Default))
	if !meip {
		t.Fatal("MEIP must raise once enabled")
	}
	ic.SetSource(3, true)
	// Claim: lower number wins.
	if got := readWord(t, l, ic, IntCClaim); got.V != 3 {
		t.Errorf("claim = %d, want 3", got.V)
	}
	if got := readWord(t, l, ic, IntCClaim); got.V != 5 {
		t.Errorf("claim = %d, want 5", got.V)
	}
	if meip {
		t.Error("MEIP must drop when all claims taken")
	}
	if got := readWord(t, l, ic, IntCClaim); got.V != 0 {
		t.Errorf("claim = %d, want 0 when none pending", got.V)
	}
	// Complete with the level still high re-pends the source.
	writeWord(t, ic, IntCClaim, core.W(5, env.Default))
	if !meip {
		t.Error("complete of a still-high level source must re-raise MEIP")
	}
	ic.SetSource(5, false)
	readWord(t, l, ic, IntCClaim) // claim 5
	writeWord(t, ic, IntCClaim, core.W(5, env.Default))
	if meip {
		t.Error("complete of a lowered source must not re-raise")
	}
}

func TestIntCSourceClosureAndBounds(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	ic := NewIntC(env, nil)
	ic.Source(2)(true)
	ic.SetSource(0, true)  // out of range: ignored
	ic.SetSource(32, true) // out of range: ignored
	if got := readWord(t, l, ic, IntCPending); got.V != 1<<2 {
		t.Errorf("pending = 0x%x", got.V)
	}
}

// ------------------------------------------------------------------- DMA --

func TestDMACopyPreservesTags(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	hc := l.MustTag("(HC,HI)")

	bus := tlm.NewBus()
	ram := make([]core.TByte, 256)
	bus.MustMap("ram", 0x1000, 256, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		switch p.Cmd {
		case tlm.Read:
			copy(p.Data, ram[p.Addr:])
		case tlm.Write:
			copy(ram[p.Addr:], p.Data)
		}
		p.Resp = tlm.OK
	}))
	var irq bool
	dma := NewDMA(env, bus, "dma0", func(lv bool) { irq = lv })
	bus.MustMap("dma", 0x2000, DMASize, dma)

	// Secret bytes at 0x1000..0x100F.
	for i := 0; i < 16; i++ {
		ram[i] = core.TByte{V: byte(i), T: hc}
	}
	writeWord(t, dma, DMASrc, core.W(0x1000, env.Default))
	writeWord(t, dma, DMADst, core.W(0x1080, env.Default))
	writeWord(t, dma, DMALen, core.W(16, env.Default))
	writeWord(t, dma, DMACtrl, core.W(1, env.Default))

	if got := readWord(t, l, dma, DMACtrl); got.V&1 == 0 {
		t.Error("DMA must be busy right after start")
	}
	if err := env.Sim.Run(10 * kernel.MS); err != nil {
		t.Fatal(err)
	}
	if !irq {
		t.Error("completion IRQ must fire")
	}
	if got := readWord(t, l, dma, DMAStatus); got.V != 1 {
		t.Errorf("done count = %d", got.V)
	}
	for i := 0; i < 16; i++ {
		if ram[0x80+i].V != byte(i) || ram[0x80+i].T != hc {
			t.Fatalf("byte %d: %+v — DMA must move tags with data", i, ram[0x80+i])
		}
	}
	// Register readbacks.
	if readWord(t, l, dma, DMASrc).V != 0x1000 || readWord(t, l, dma, DMADst).V != 0x1080 ||
		readWord(t, l, dma, DMALen).V != 16 {
		t.Error("register readback")
	}
}

// TestDMAEventCarriesDataClass: the observer's dma event records the class
// of the bytes the burst moved, folded from the first byte, not joined onto
// the policy default. Under IFP-2 with default LI a copy of two HI words
// must read HI, as RAM does after the copy.
func TestDMAEventCarriesDataClass(t *testing.T) {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	o := obs.New()
	env := &Env{Sim: kernel.New(), Lat: l, Default: li, Obs: o}
	defer env.Sim.Shutdown()

	bus := tlm.NewBus()
	ram := make([]core.TByte, 64)
	for i := 0; i < 8; i++ {
		ram[i] = core.TByte{V: byte(i), T: hi}
	}
	bus.MustMap("ram", 0x1000, 64, tlm.TargetFunc(func(p *tlm.Payload, d *kernel.Time) {
		if p.Cmd == tlm.Read {
			copy(p.Data, ram[p.Addr:])
		} else {
			copy(ram[p.Addr:], p.Data)
		}
		p.Resp = tlm.OK
	}))
	dma := NewDMA(env, bus, "dma0", nil)
	writeWord(t, dma, DMASrc, core.W(0x1000, li))
	writeWord(t, dma, DMADst, core.W(0x1020, li))
	writeWord(t, dma, DMALen, core.W(8, li))
	writeWord(t, dma, DMACtrl, core.W(1, li))

	if ram[0x20].T != hi || ram[0x27].T != hi {
		t.Fatalf("copied bytes carry %d..%d, want HI", ram[0x20].T, ram[0x27].T)
	}
	var dmaEvents int
	for _, ev := range o.Events() {
		if ev.Kind == core.EvDMA {
			dmaEvents++
			if ev.Tag != hi {
				t.Errorf("dma event class %s, want HI (the copied data's class)", l.Name(ev.Tag))
			}
		}
	}
	if dmaEvents != 1 {
		t.Errorf("%d dma events, want 1", dmaEvents)
	}
}

func TestDMAErrors(t *testing.T) {
	env, _ := newEnv(false)
	defer env.Sim.Shutdown()
	bus := tlm.NewBus()
	dma := NewDMA(env, bus, "dma0", nil)
	writeWord(t, dma, DMASrc, core.W(0xdead0000, env.Default))
	writeWord(t, dma, DMALen, core.W(4, env.Default))
	writeWord(t, dma, DMACtrl, core.W(1, env.Default))
	if env.Sim.Err() == nil {
		t.Error("unmapped source must stop the simulation")
	}

	env2, _ := newEnv(false)
	defer env2.Sim.Shutdown()
	dma2 := NewDMA(env2, bus, "dma0", nil)
	writeWord(t, dma2, DMALen, core.W(maxDMALen+1, env2.Default))
	writeWord(t, dma2, DMACtrl, core.W(1, env2.Default))
	if env2.Sim.Err() == nil {
		t.Error("oversized transfer must stop the simulation")
	}

	var buf [1]core.TByte
	if resp := rw(t, dma2, tlm.Read, DMASize, buf[:]); resp != tlm.AddressError {
		t.Error("past-end access must fail")
	}
}

// ------------------------------------------------------------------- CAN --

func TestCANTransmitReceive(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var irq bool
	c := NewCAN(env, "can0", func(lv bool) { irq = lv })
	li := l.MustTag("(LC,LI)")
	c.SetTxClearance(li)
	c.SetRxClass(li)

	var got []CANFrame
	c.OnTransmit = func(f CANFrame) { got = append(got, f) }

	// Guest-side transmit.
	writeWord(t, c, CANTxID, core.W(0x123, env.Default))
	writeWord(t, c, CANTxLen, core.W(3, env.Default))
	var b [3]core.TByte
	copy(b[:], core.TagAll([]byte{9, 8, 7}, env.Default))
	rw(t, c, tlm.Write, CANTxData, b[:])
	writeWord(t, c, CANTxCtrl, core.W(1, env.Default))
	if len(got) != 1 || got[0].ID != 0x123 || len(got[0].Data) != 3 || got[0].Data[2].V != 7 {
		t.Fatalf("transmit = %+v", got)
	}
	if len(c.TxLog) != 1 {
		t.Error("TxLog must record frames")
	}

	// Host-side delivery.
	c.Deliver(0x456, []byte{1, 2})
	if !irq {
		t.Error("RX IRQ must raise")
	}
	if readWord(t, l, c, CANStatus).V&1 == 0 {
		t.Error("status must show a frame")
	}
	if readWord(t, l, c, CANRxID).V != 0x456 || readWord(t, l, c, CANRxLen).V != 2 {
		t.Error("rx id/len")
	}
	var rb [2]core.TByte
	rw(t, c, tlm.Read, CANRxData, rb[:])
	if rb[0].V != 1 || rb[1].V != 2 || rb[0].T != li {
		t.Errorf("rx data = %+v", rb)
	}
	writeWord(t, c, CANRxCtrl, core.W(1, env.Default)) // pop
	if readWord(t, l, c, CANStatus).V&1 != 0 || irq {
		t.Error("queue must be empty after pop")
	}
	if readWord(t, l, c, CANRxLen).V != 0 {
		t.Error("empty queue must read len 0")
	}
}

func TestCANTxClearanceViolation(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	c := NewCAN(env, "can0", nil)
	c.SetTxClearance(l.MustTag("(LC,LI)"))
	sent := false
	c.OnTransmit = func(CANFrame) { sent = true }

	writeWord(t, c, CANTxLen, core.W(1, env.Default))
	var b [1]core.TByte
	b[0] = core.B(0x41, l.MustTag("(HC,HI)"))
	rw(t, c, tlm.Write, CANTxData, b[:])
	writeWord(t, c, CANTxCtrl, core.W(1, env.Default))

	var v *core.Violation
	if !errors.As(env.Sim.Err(), &v) || v.Port != "can0.tx" {
		t.Fatalf("err = %v, want can0.tx violation", env.Sim.Err())
	}
	if sent {
		t.Error("violating frame must not reach the peer")
	}
}

func TestCANDeliverTaggedAndClone(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	c := NewCAN(env, "can0", nil)
	hc := l.MustTag("(HC,HI)")
	f := CANFrame{ID: 7, Data: []core.TByte{{V: 1, T: hc}}}
	c.DeliverTagged(f)
	f.Data[0].V = 99 // mutate the original; the queued clone must not change
	var rb [1]core.TByte
	rw(t, c, tlm.Read, CANRxData, rb[:])
	if rb[0].V != 1 || rb[0].T != hc {
		t.Errorf("rx = %+v", rb[0])
	}
}

// ------------------------------------------------------------------- AES --

func TestAES128AgainstStdlib(t *testing.T) {
	f := func(key, pt [16]byte) bool {
		blk, err := aes.NewCipher(key[:])
		if err != nil {
			return false
		}
		want := make([]byte, 16)
		blk.Encrypt(want, pt[:])
		got := aesEncryptBlock(key, pt)
		return bytes.Equal(got[:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAES128FIPSVector(t *testing.T) {
	// FIPS-197 Appendix B.
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := [16]byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := [16]byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}
	if got := aesEncryptBlock(key, pt); got != want {
		t.Fatalf("got % x, want % x", got, want)
	}
}

func TestAESPeripheralDeclassifies(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	hcHI := l.MustTag("(HC,HI)")
	lcLI := l.MustTag("(LC,LI)")
	a := NewAES(env, "aes0", core.NewDeclassifier(l))
	// The trusted engine admits every class — its input clearance is the
	// lattice top (HC,LI): both the secret key (HC,HI) and the untrusted
	// challenge (LC,LI) flow to it.
	top, ok := l.Top()
	if !ok {
		t.Fatal("IFP-3 must have a top")
	}
	a.SetInputClearance(top)
	a.SetOutputClass(lcLI)

	// Secret key in, public challenge in.
	key := core.TagAll(bytes.Repeat([]byte{0x2b}, 16), hcHI)
	rw(t, a, tlm.Write, AESKey, key)
	pt := core.TagAll(bytes.Repeat([]byte{0x32}, 16), lcLI)
	rw(t, a, tlm.Write, AESDataIn, pt)
	writeWord(t, a, AESCtrl, core.W(1, env.Default))
	if env.Sim.Err() != nil {
		t.Fatal(env.Sim.Err())
	}
	if readWord(t, l, a, AESCtrl).V&1 == 0 {
		t.Error("done bit must be set")
	}
	var ct [16]core.TByte
	rw(t, a, tlm.Read, AESDataOut, ct[:])
	var wantKey, wantPt [16]byte
	copy(wantKey[:], core.Values(key))
	copy(wantPt[:], core.Values(pt))
	want := aesEncryptBlock(wantKey, wantPt)
	for i := range ct {
		if ct[i].V != want[i] {
			t.Fatalf("ciphertext byte %d wrong", i)
		}
		if ct[i].T != lcLI {
			t.Fatalf("ciphertext byte %d tag = %s, want declassified (LC,LI)", i, l.Name(ct[i].T))
		}
	}
	// Key must not read back.
	var kb [16]core.TByte
	rw(t, a, tlm.Read, AESKey, kb[:])
	for _, b := range kb {
		if b.V != 0 {
			t.Fatal("key readback must be zero")
		}
	}
}

func TestAESWithoutDeclassifierKeepsTaint(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	hcHI := l.MustTag("(HC,HI)")
	a := NewAES(env, "aes0", nil)
	rw(t, a, tlm.Write, AESKey, core.TagAll(make([]byte, 16), hcHI))
	rw(t, a, tlm.Write, AESDataIn, core.TagAll(make([]byte, 16), env.Default))
	writeWord(t, a, AESCtrl, core.W(1, env.Default))
	var ct [16]core.TByte
	rw(t, a, tlm.Read, AESDataOut, ct[:])
	folded := l.LUB(hcHI, env.Default)
	if ct[0].T != folded {
		t.Errorf("without a declassifier the ciphertext keeps the folded tag, got %s", l.Name(ct[0].T))
	}
}

func TestAESInputClearance(t *testing.T) {
	// An AES configured with only (LC,LI) clearance must reject secret keys.
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	a := NewAES(env, "aes0", core.NewDeclassifier(l))
	a.SetInputClearance(l.MustTag("(LC,LI)"))
	rw(t, a, tlm.Write, AESKey, core.TagAll(make([]byte, 16), l.MustTag("(HC,HI)")))
	var v *core.Violation
	if !errors.As(env.Sim.Err(), &v) || v.Port != "aes0.in" {
		t.Fatalf("err = %v, want aes0.in violation", env.Sim.Err())
	}
}

// --------------------------------------------------------------- SysCtrl --

func TestSysCtrlExit(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	var code uint32 = 0xffffffff
	s := NewSysCtrl(env, func(c uint32) { code = c })
	writeWord(t, s, SysCtrlExit, core.W(0x1234, env.Default))
	if exited, c := s.Exited(); !exited || c != 0x1234 || code != 0x1234 {
		t.Errorf("exit = %v %d (callback %d)", exited, c, code)
	}
	// Second write is ignored.
	writeWord(t, s, SysCtrlExit, core.W(0x9999, env.Default))
	if _, c := s.Exited(); c != 0x1234 {
		t.Error("second exit write must be ignored")
	}
	if got := readWord(t, l, s, SysCtrlExit); got.V != 0x1234 {
		t.Error("exit code readback")
	}
}

func TestSysCtrlTimeAndErrors(t *testing.T) {
	env, l := newEnv(false)
	defer env.Sim.Shutdown()
	s := NewSysCtrl(env, nil)
	env.Sim.At(42*kernel.US, func() {})
	if err := env.Sim.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	if got := readWord(t, l, s, SysCtrlTime); got.V != 42 {
		t.Errorf("time = %d, want 42", got.V)
	}
	var buf [4]core.TByte
	if resp := rw(t, s, tlm.Read, SysCtrlSize, buf[:]); resp != tlm.AddressError {
		t.Error("past-end must fail")
	}
	p := tlm.Payload{Cmd: tlm.Command(7), Addr: 0, Data: buf[:]}
	var d kernel.Time
	s.Transport(&p, &d)
	if p.Resp != tlm.CommandError {
		t.Error("bad command must fail")
	}
}

// --------------------------------------------------------------- baseline --

func TestBaselineEnvSkipsChecks(t *testing.T) {
	env, _ := newEnv(true)
	defer env.Sim.Shutdown()
	u := NewUART(env, "uart0", nil)
	u.SetTxClearance(1)
	// With no lattice, any tag passes.
	writeWord(t, u, UARTTxData, core.W('Z', 3))
	if env.Sim.Err() != nil {
		t.Fatal("baseline platform must not enforce clearance")
	}
	if string(u.Output()) != "Z" {
		t.Error("output")
	}
	if env.lub(1, 2) != 0 {
		t.Error("baseline lub must be 0")
	}
}
