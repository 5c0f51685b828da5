// Package soc assembles the complete virtual prototype: CPU, tainted RAM,
// TLM bus, and the peripheral set (UART, sensor, CLINT, interrupt
// controller, DMA, CAN, AES, SysCtrl), mirroring the RISC-V VP platform the
// paper builds on.
//
// Two platform flavours exist, selected by Config.Policy:
//
//   - Policy == nil — the baseline "VP": plain core, plain memory, no tag
//     tracking. This is the reference for Table II.
//   - Policy != nil — "VP+": TaintCore over tainted memory, with the policy
//     encoded into the platform: load-time classification, peripheral input
//     classes, output/input clearances, execution clearance, and the AES
//     declassifier.
package soc

import (
	"errors"
	"fmt"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/mem"
	"vpdift/internal/obs"
	"vpdift/internal/periph"
	"vpdift/internal/rv32"
	"vpdift/internal/telemetry"
	"vpdift/internal/tlm"
	"vpdift/internal/trace"
)

// Memory map of the platform.
const (
	CLINTBase   = 0x02000000
	IntCBase    = 0x0C000000
	UARTBase    = 0x10000000
	SysCtrlBase = 0x11000000
	CANBase     = 0x40000000
	SensorBase  = 0x50000000
	AESBase     = 0x60000000
	DMABase     = 0x70000000
	RAMBase     = 0x80000000
)

// External interrupt source numbers on the IntC.
const (
	IRQUart   = 1
	IRQSensor = 2
	IRQCan    = 3
	IRQDma    = 4
)

// DefaultRAMSize is 8 MiB, plenty for every guest in this repository.
const DefaultRAMSize = 8 << 20

// DefaultQuantum is the number of instructions the CPU executes between
// kernel synchronizations (the TLM loosely-timed quantum).
const DefaultQuantum = 4096

// DefaultInstrTime models a 100 MHz single-issue core: 10 ns per
// instruction.
const DefaultInstrTime = 10 * kernel.NS

// Config parameterizes platform construction.
type Config struct {
	// Policy enables DIFT (VP+) when non-nil. It must validate.
	Policy *core.Policy
	// RAMSize defaults to DefaultRAMSize.
	RAMSize uint32
	// Quantum defaults to DefaultQuantum instructions.
	Quantum uint64
	// InstrTime defaults to DefaultInstrTime.
	InstrTime kernel.Time
	// TaintMemViaTLM routes every VP+ data access through full TLM
	// transactions instead of the direct memory path, matching the
	// memory-interface organization the paper describes for its DIFT
	// platform. Ignored on the baseline VP.
	TaintMemViaTLM bool
	// DecoupledTaint is ignored. It named a VP+ organization that has been
	// removed (the flag caches it introduced are now always on); the field
	// stays only so existing callers keep compiling.
	DecoupledTaint bool
	// NoDecodeCache disables the predecoded-instruction cache on whichever
	// core the platform builds — every fetch decodes (and, on the VP+,
	// tag-folds) from RAM again. For ablation benchmarks.
	NoDecodeCache bool
	// Obs, when non-nil, is attached to the platform and wired through every
	// layer: core hooks, peripheral I/O, load-time classification roots, and
	// bus monitors on the data-carrying peripherals. Nil (the default) keeps
	// all hook sites on their one-branch fast path.
	Obs *obs.Observer
	// Trace, when non-nil with at least one view enabled, wires the
	// simulation-side observability layer: kernel/bus event recording
	// (Trace.Kernel), waveform probes over CPU and peripheral state
	// (Trace.VCD), and the guest hot-path profiler (Trace.Prof). Nil keeps
	// every hook site on its one-branch fast path.
	Trace *trace.Trace
	// Cover, when non-nil with at least one view enabled, wires the
	// coverage-observability layer: guest block/edge coverage (Cover.Guest),
	// taint heatmaps and register occupancy (Cover.Taint), and the policy
	// audit with per-lattice-edge hit counters (Cover.Audit). On the
	// baseline VP only the guest view applies. Nil keeps the cores'
	// post-retire hook on its one-branch fast path.
	Cover *cover.Cover
	// Telemetry, when non-nil, runs a periodic metrics sampler on a kernel
	// daemon thread: every Sampler.Options().Every of simulated time it
	// snapshots MetricsSnapshotInto into its bounded ring. Daemon threads
	// never keep an unbounded Run alive, so enabling telemetry does not
	// change when a simulation ends. Nil (the default) spawns nothing.
	Telemetry *telemetry.Sampler
	// Flight is the always-on flight recorder (internal/flight): a small
	// overwrite-oldest ring of per-retire records plus IRQ/trap/bus marks,
	// frozen into a forensic bundle when the run stops on a violation or
	// guest fault (see forensics.go). Nil selects a default-sized recorder;
	// FlightOff disables capture entirely (the recorder-off flavour of the
	// perf guard).
	Flight    *flight.Recorder
	FlightOff bool
}

// Platform is a constructed virtual prototype.
type Platform struct {
	Sim *kernel.Simulator
	Bus *tlm.Bus

	UART    *periph.UART
	Sensor  *periph.Sensor
	CLINT   *periph.CLINT
	IntC    *periph.IntC
	DMA     *periph.DMA
	CAN     *periph.CAN
	AES     *periph.AES
	SysCtrl *periph.SysCtrl

	// Exactly one of the two cores is non-nil.
	Core      *rv32.Core
	TaintCore *rv32.TaintCore

	policy   *core.Policy
	ram      *mem.Memory      // VP+ RAM
	plainRAM *mem.PlainMemory // VP RAM

	cfg      Config
	irqEvent *kernel.Event
	exited   bool
	exitCode uint32
	loaded   bool

	// monitors are the TLM monitors wrapped around data-carrying peripherals
	// when an observer is attached, kept so MetricsSnapshot can report how
	// many transactions each one dropped past its log limit.
	monitors []namedMonitor

	// lastBundle is the forensic bundle stashed by the first terminal
	// violation or fault (see forensics.go); later Run calls on the stopped
	// platform keep the original evidence.
	lastBundle *flight.Bundle

	// imgDigest and lastErr feed the coverage snapshot's run identity and
	// verdict (see coversnap.go): the loaded image's content hash and the
	// first terminal Run error.
	imgDigest string
	lastErr   error
}

type namedMonitor struct {
	name string
	key  string // "bus.monitor_dropped."+name, precomputed so snapshots don't concat
	m    *tlm.Monitor
}

// New builds a platform. The baseline VP is built when cfg.Policy is nil.
func New(cfg Config) (*Platform, error) {
	if cfg.RAMSize == 0 {
		cfg.RAMSize = DefaultRAMSize
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.InstrTime == 0 {
		cfg.InstrTime = DefaultInstrTime
	}
	// The flight recorder is on by default: a fixed ~96 KiB ring is the
	// price of having forensics for every verdict anywhere in a fleet.
	if cfg.FlightOff {
		cfg.Flight = nil
	} else if cfg.Flight == nil {
		cfg.Flight = flight.New(0)
	}
	pl := &Platform{
		Sim: kernel.New(),
		Bus: tlm.NewBus(),
		cfg: cfg,
	}
	pl.irqEvent = pl.Sim.NewEvent("irq")

	// Simulation-side tracing hooks in before any process spawns so thread
	// creation is part of the record; the bus hook lands every transaction on
	// the same stream.
	if cfg.Trace.Active() {
		pl.Sim.SetTracer(cfg.Trace)
		if kt := cfg.Trace.Kernel; kt != nil {
			pl.Bus.Trace = kt.BusHook(pl.Sim)
		}
	}

	env := &periph.Env{Sim: pl.Sim}
	pol := cfg.Policy
	if pol != nil {
		if err := pol.Validate(); err != nil {
			return nil, fmt.Errorf("soc: %w", err)
		}
		pl.policy = pol
		env.Lat = pol.L
		env.Default = pol.Default
	}

	// CPU and RAM.
	var setIRQ func(line uint32, level bool)
	if pol == nil {
		pl.plainRAM = mem.NewPlain(cfg.RAMSize)
		pl.Core = rv32.NewCore(pl.plainRAM, RAMBase, pl.Bus)
		if cfg.NoDecodeCache {
			pl.Core.DisableDecodeCache()
		}
		setIRQ = func(line uint32, level bool) {
			pl.Core.SetIRQ(line, level)
			if level {
				if fr := pl.cfg.Flight; fr != nil {
					fr.MarkIRQ(pl.Core.Instret, line)
				}
				pl.irqEvent.Notify(0)
			}
		}
	} else {
		pl.ram = mem.New(cfg.RAMSize, pol.Default)
		pl.TaintCore = rv32.NewTaintCore(pl.ram, RAMBase, pl.Bus, pol)
		pl.TaintCore.ForceBusMem = cfg.TaintMemViaTLM
		if cfg.NoDecodeCache {
			pl.TaintCore.DisableDecodeCache()
		}
		setIRQ = func(line uint32, level bool) {
			pl.TaintCore.SetIRQ(line, level)
			if level {
				if fr := pl.cfg.Flight; fr != nil {
					fr.MarkIRQ(pl.TaintCore.Instret, line)
				}
				pl.irqEvent.Notify(0)
			}
		}
	}
	// Flight recorder: wire the retire path into whichever core was built
	// and chain an MMIO mark onto the TLM trace hook. RAM-range traffic is
	// filtered out — under TaintMemViaTLM every data access is a bus
	// transaction and would evict the instruction window the bundle is for.
	if fr := pl.cfg.Flight; fr != nil {
		if pl.Core != nil {
			pl.Core.FR = fr
		} else {
			pl.TaintCore.FR = fr
		}
		prev := pl.Bus.Trace
		pl.Bus.Trace = func(name string, p *tlm.Payload) {
			if prev != nil {
				prev(name, p)
			}
			if name != "ram" {
				fr.MarkBus(pl.Instret(), name, p.Addr, p.Cmd == tlm.Write, len(p.Data))
			}
		}
	}
	if cfg.Trace != nil && cfg.Trace.Prof != nil {
		if pl.Core != nil {
			pl.Core.Retire = cfg.Trace.Prof.OnRetire
		} else {
			pl.TaintCore.Retire = cfg.Trace.Prof.OnRetire
		}
	}

	// Observability: attach the observer to simulated time and the security
	// context, register peripheral base addresses for MMIO provenance, and
	// route the lattice's LUB counter into the metrics.
	if o := cfg.Obs; o != nil {
		var lat *core.Lattice
		var def core.Tag
		if pol != nil {
			lat, def = pol.L, pol.Default
			pol.L.SetLUBCounter(o.LUBCounter())
		}
		o.Attach(func() uint64 { return uint64(pl.Sim.Now()) }, lat, def)
		env.Obs = o
		if pl.Core != nil {
			// The baseline core has no taint to record; its only hook is the
			// per-retire EvExec event, so wire it only when tracing is on.
			if o.TracesExec() {
				pl.Core.Obs = o
			}
		} else {
			pl.TaintCore.Obs = o
		}
		o.RegisterPort("uart0", UARTBase)
		o.RegisterPort("can0", CANBase)
		o.RegisterPort("sensor0", SensorBase)
		o.RegisterPort("aes0", AESBase)
		o.RegisterPort("dma0", DMABase)
	}

	// Interrupt fabric.
	pl.CLINT = periph.NewCLINT(env,
		func(lv bool) { setIRQ(rv32.IntMTI, lv) },
		func(lv bool) { setIRQ(rv32.IntMSI, lv) })
	pl.IntC = periph.NewIntC(env, func(lv bool) { setIRQ(rv32.IntMEI, lv) })

	// Peripherals.
	pl.UART = periph.NewUART(env, "uart0", pl.IntC.Source(IRQUart))
	pl.Sensor = periph.NewSensor(env, "sensor0", pl.IntC.Source(IRQSensor))
	pl.CAN = periph.NewCAN(env, "can0", pl.IntC.Source(IRQCan))
	pl.DMA = periph.NewDMA(env, pl.Bus, "dma0", pl.IntC.Source(IRQDma))
	var decl *core.Declassifier
	if pol != nil {
		decl = core.NewDeclassifier(pol.L)
	}
	pl.AES = periph.NewAES(env, "aes0", decl)
	pl.SysCtrl = periph.NewSysCtrl(env, func(code uint32) {
		pl.exited = true
		pl.exitCode = code
		if pl.Core != nil {
			pl.Core.Halted = true
		} else {
			pl.TaintCore.Halted = true
		}
	})

	// Encode the policy into the peripherals.
	if pol != nil {
		if t, ok := pol.OutputClearance("uart0.tx"); ok {
			pl.UART.SetTxClearance(t)
		}
		if t, ok := pol.OutputClearance("can0.tx"); ok {
			pl.CAN.SetTxClearance(t)
		}
		if t, ok := pol.OutputClearance("aes0.in"); ok {
			pl.AES.SetInputClearance(t)
		}
		pl.UART.SetRxClass(pol.InputClass("uart0.rx"))
		pl.CAN.SetRxClass(pol.InputClass("can0.rx"))
		pl.Sensor.SetDataTag(pol.InputClass("sensor0.data"))
		pl.AES.SetOutputClass(pol.InputClass("aes0.out"))
	}

	// Memory map. With an observer attached, the data-carrying peripherals
	// get a TLM monitor in front so their transactions land in the event
	// stream; the interrupt fabric and SysCtrl stay unwrapped (pure control).
	mapData := func(name string, base, size uint32, t tlm.Target) {
		if cfg.Obs != nil {
			m := tlm.NewMonitor(t, pl.Sim, 1)
			m.OnTransaction = cfg.Obs.BusSink(name)
			pl.monitors = append(pl.monitors, namedMonitor{
				name: name, key: "bus.monitor_dropped." + name, m: m,
			})
			t = m
		}
		pl.Bus.MustMap(name, base, size, t)
	}
	pl.Bus.MustMap("clint", CLINTBase, periph.CLINTSize, pl.CLINT)
	pl.Bus.MustMap("intc", IntCBase, periph.IntCSize, pl.IntC)
	mapData("uart0", UARTBase, periph.UARTSize, pl.UART)
	pl.Bus.MustMap("sysctrl", SysCtrlBase, periph.SysCtrlSize, pl.SysCtrl)
	mapData("can0", CANBase, periph.CANSize, pl.CAN)
	mapData("sensor0", SensorBase, periph.SensorSize, pl.Sensor)
	mapData("aes0", AESBase, periph.AESSize, pl.AES)
	mapData("dma0", DMABase, periph.DMASize, pl.DMA)
	if pol == nil {
		pl.Bus.MustMap("ram", RAMBase, cfg.RAMSize, pl.plainRAM)
	} else {
		pl.Bus.MustMap("ram", RAMBase, cfg.RAMSize, pl.ram)
	}

	// Default waveform probes: the CPU program counter plus the externally
	// visible peripheral state. Guests add memory and tag probes via
	// AddMemProbe / AddTagProbe before Run.
	if cfg.Trace != nil && cfg.Trace.VCD != nil {
		v := cfg.Trace.VCD
		if pl.Core != nil {
			v.AddProbe("cpu_pc", 32, func() uint64 { return uint64(pl.Core.PC) })
		} else {
			v.AddProbe("cpu_pc", 32, func() uint64 { return uint64(pl.TaintCore.PC) })
		}
		v.AddProbe("uart0_rx_pending", 8, func() uint64 { return uint64(pl.UART.RxPending()) })
		v.AddProbe("uart0_tx_count", 16, func() uint64 { return uint64(pl.UART.TxCount()) })
		v.AddProbe("uart0_last_tx", 8, func() uint64 { return uint64(pl.UART.LastTx()) })
		v.AddProbe("sensor0_frames", 16, func() uint64 { return pl.Sensor.Frames() })
		v.AddProbe("intc_pending", 32, func() uint64 { return uint64(pl.IntC.Pending()) })
		v.AddProbe("intc_enable", 32, func() uint64 { return uint64(pl.IntC.Enabled()) })
		v.AddProbe("dma0_busy", 1, func() uint64 {
			if pl.DMA.Busy() {
				return 1
			}
			return 0
		})
		v.AddProbe("dma0_transfers", 16, func() uint64 { return uint64(pl.DMA.Transfers()) })
	}

	// Coverage observability: size the requested views against this
	// platform's geometry and hand the bundle to the core. The audit
	// installs its lattice counters here — after all wiring-time queries
	// (Top, clearance encoding) — so setup noise does not pollute the run's
	// per-edge counts.
	if cv := cfg.Cover; cv.Active() {
		if cv.Guest != nil {
			cv.Guest.Configure(RAMBase, cfg.RAMSize)
		}
		if pol == nil {
			pl.Core.Cov = cv
		} else {
			if cv.Taint != nil {
				cv.Taint.Configure(RAMBase, cfg.RAMSize, pol.L, pol.Default)
				// CPU stores report through the core's cover hook; this hook
				// catches the bus-initiated writes (DMA, TLM) that bypass it.
				ram := pl.ram
				pl.ram.AddWriteHook(func(start, end uint32) {
					cv.Taint.OnMemWrite(ram.Data()[start:end], start)
				})
			}
			if cv.Audit != nil {
				cv.Audit.Configure(pol)
				env.Audit = cv.Audit
			}
			pl.TaintCore.Cov = cv
		}
	}

	pl.spawnCPU()

	// Live telemetry rides on a daemon thread spawned after the CPU so the
	// first tick observes a platform that has already started executing.
	if cfg.Telemetry != nil {
		cfg.Telemetry.Start(pl.Sim, pl.MetricsSnapshotInto)
	}
	return pl, nil
}

// Cover returns the attached coverage bundle, nil when coverage is off.
func (pl *Platform) Cover() *cover.Cover { return pl.cfg.Cover }

// Trace returns the attached trace bundle, nil when simulation-side tracing
// is off.
func (pl *Platform) Trace() *trace.Trace { return pl.cfg.Trace }

// AddMemProbe registers a waveform probe on the 32-bit little-endian RAM
// word at bus address addr. Call before Run; requires an attached VCD view.
func (pl *Platform) AddMemProbe(name string, addr uint32) error {
	if pl.cfg.Trace == nil || pl.cfg.Trace.VCD == nil {
		return fmt.Errorf("soc: no VCD view attached")
	}
	off := addr - RAMBase
	if addr < RAMBase || uint64(off)+4 > uint64(pl.cfg.RAMSize) {
		return fmt.Errorf("soc: mem probe 0x%08x outside RAM", addr)
	}
	read := func() uint64 {
		var w uint32
		if pl.Core != nil {
			d := pl.plainRAM.Data()
			w = uint32(d[off]) | uint32(d[off+1])<<8 | uint32(d[off+2])<<16 | uint32(d[off+3])<<24
		} else {
			d := pl.ram.Data()
			w = uint32(d[off].V) | uint32(d[off+1].V)<<8 | uint32(d[off+2].V)<<16 | uint32(d[off+3].V)<<24
		}
		return uint64(w)
	}
	pl.cfg.Trace.VCD.AddProbe(name, 32, read)
	return nil
}

// AddTagProbe registers a waveform probe on the security tag of the RAM
// byte at bus address addr — the per-location DIFT state as a waveform. VP+
// only; call before Run.
func (pl *Platform) AddTagProbe(name string, addr uint32) error {
	if pl.cfg.Trace == nil || pl.cfg.Trace.VCD == nil {
		return fmt.Errorf("soc: no VCD view attached")
	}
	if pl.ram == nil {
		return fmt.Errorf("soc: tag probes need the VP+ (taint) platform")
	}
	off := addr - RAMBase
	if addr < RAMBase || uint64(off) >= uint64(pl.cfg.RAMSize) {
		return fmt.Errorf("soc: tag probe 0x%08x outside RAM", addr)
	}
	pl.cfg.Trace.VCD.AddProbe(name, 8, func() uint64 {
		return uint64(pl.ram.Data()[off].T)
	})
	return nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Platform {
	pl, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return pl
}

// spawnCPU starts the CPU process: execute a quantum, advance simulated
// time, repeat; on WFI sleep until an interrupt line rises.
func (pl *Platform) spawnCPU() {
	pl.Sim.Spawn("cpu", func(p *kernel.Proc) {
		for {
			var delay kernel.Time
			var n uint64
			var st rv32.RunStatus
			var err error
			if pl.Core != nil {
				n, st, err = pl.Core.Run(pl.cfg.Quantum, &delay)
			} else {
				n, st, err = pl.TaintCore.Run(pl.cfg.Quantum, &delay)
			}
			if err != nil {
				p.Fatal(err)
			}
			advance := kernel.Time(n)*pl.cfg.InstrTime + delay
			switch st {
			case rv32.RunHalt:
				p.Stop()
			case rv32.RunWFI:
				if fr := pl.cfg.Flight; fr != nil {
					fr.MarkEvent(pl.Instret(), "wfi-sleep")
				}
				if advance > 0 {
					p.Wait(advance)
				}
				for !pl.pendingIRQ() && !pl.Sim.Stopped() {
					p.WaitEvent(pl.irqEvent)
				}
			default:
				p.Wait(advance)
			}
		}
	})
}

func (pl *Platform) pendingIRQ() bool {
	if pl.Core != nil {
		return pl.Core.PendingIRQ()
	}
	return pl.TaintCore.PendingIRQ()
}

// Load places a program image into RAM and points the CPU at its entry. On
// the DIFT platform every loaded byte is classified per the policy's region
// rules (program text typically HI, key material HC/HI, everything else the
// default class); classification rules also apply to untouched RAM such as
// zero-initialized key buffers.
func (pl *Platform) Load(img *asm.Image) error {
	if pl.loaded {
		return fmt.Errorf("soc: image already loaded")
	}
	flat := img.Flatten()
	if img.Base < RAMBase {
		return fmt.Errorf("soc: image base 0x%x below RAM base 0x%x", img.Base, RAMBase)
	}
	pl.imgDigest = imageDigest(img, flat)
	offset := img.Base - RAMBase
	// The profiler and the coverage reports symbolize against the loaded
	// image.
	if pl.cfg.Trace != nil && pl.cfg.Trace.Prof != nil {
		pl.cfg.Trace.Prof.SetImage(img)
	}
	if cv := pl.cfg.Cover; cv != nil && cv.Guest != nil {
		cv.Guest.SetImage(img)
	}
	if pl.Core != nil {
		if err := pl.plainRAM.Load(offset, flat); err != nil {
			return err
		}
		pl.Core.PC = img.Entry
		pl.loaded = true
		return nil
	}
	pol := pl.policy
	data := pl.ram.Data()
	if uint64(offset)+uint64(len(flat)) > uint64(len(data)) {
		return fmt.Errorf("soc: image of %d bytes does not fit RAM", len(flat))
	}
	for i, b := range flat {
		addr := img.Base + uint32(i)
		data[offset+uint32(i)] = core.TByte{V: b, T: pol.ClassifyAt(addr)}
	}
	// Classification rules may also cover RAM outside the image.
	for i := range pol.Regions {
		r := &pol.Regions[i]
		if !r.Classify {
			continue
		}
		for a := r.Start; a < r.End; a++ {
			off := a - RAMBase
			if off < uint32(len(data)) && (a < img.Base || a >= img.Base+uint32(len(flat))) {
				data[off].T = r.Class
			}
		}
	}
	// Load-time classification is where every provenance chain begins: pin
	// one never-evicted root event per classified region so chains survive
	// arbitrarily long runs.
	if pl.cfg.Obs != nil {
		for i := range pol.Regions {
			r := &pol.Regions[i]
			if r.Classify && r.Class != pol.Default {
				pl.cfg.Obs.PinClassify(r.Name, r.Start, r.End, r.Class)
			}
		}
	}
	// Seed the taint heatmap's shadow tags from the classified RAM so the
	// classification roots count as ever-tainted without counting as churn.
	if cv := pl.cfg.Cover; cv != nil && cv.Taint != nil {
		cv.Taint.InitFromRAM(data)
	}
	// The image and classification rules were written through the raw Data()
	// slice, which bypasses the RAM write hooks; drop the core's caches
	// explicitly.
	pl.TaintCore.InvalidateCaches(0, pl.ram.Size())
	pl.TaintCore.PC = img.Entry
	pl.loaded = true
	return nil
}

// Run advances the simulation until the guest exits, a violation or error
// stops it, or the horizon passes. It returns the stopping error (a
// *core.Violation for policy violations), or nil on clean exit/horizon.
func (pl *Platform) Run(horizon kernel.Time) error {
	if !pl.loaded {
		return fmt.Errorf("soc: no image loaded")
	}
	err := pl.Sim.Run(horizon)
	// The violating instruction never retires (the core returns early past
	// its cover hook), so attribute terminal violations to their clearance
	// point here.
	if cv := pl.cfg.Cover; err != nil && cv != nil && cv.Audit != nil {
		var v *core.Violation
		if errors.As(err, &v) {
			cv.Audit.NoteViolation(v)
		}
	}
	// Freeze the forensic evidence at the first terminal error: append the
	// violating/faulting instruction as the window's last record and stash
	// the bundle (see forensics.go).
	if err != nil {
		if pl.lastErr == nil {
			pl.lastErr = err
		}
		pl.noteForensics(err)
	}
	return err
}

// Shutdown releases the platform's kernel processes. The platform must not
// be used afterwards.
func (pl *Platform) Shutdown() {
	pl.Sim.Shutdown()
}

// Exited reports whether the guest powered off, with its exit code.
func (pl *Platform) Exited() (bool, uint32) { return pl.exited, pl.exitCode }

// Instret returns the number of instructions executed so far.
func (pl *Platform) Instret() uint64 {
	if pl.Core != nil {
		return pl.Core.Instret
	}
	return pl.TaintCore.Instret
}

// IsDIFT reports whether this is the VP+ (taint-tracking) flavour.
func (pl *Platform) IsDIFT() bool { return pl.TaintCore != nil }

// MetricsSnapshot returns the platform's simulation gauges merged with the
// observer's counters (when one is attached): instructions retired,
// simulated nanoseconds, decode-cache hit/miss statistics, per-monitor
// dropped-transaction counts, trace-subsystem gauges, plus every obs.* /
// checks.* / bus.* / violations.* counter. The decode-cache and monitor
// gauges are also pushed into the observer's Metrics registry so they ride
// along wherever that registry is exported.
func (pl *Platform) MetricsSnapshot() map[string]uint64 {
	m := make(map[string]uint64, 64)
	pl.MetricsSnapshotInto(m)
	return m
}

// MetricsSnapshotInto fills dst with the same merged view as MetricsSnapshot
// without allocating: every key written here is either a constant, a
// pre-concatenated monitor key, or comes from the observer's own
// allocation-free SnapshotInto. The telemetry sampler calls this once per
// tick into a reused map, so a long run must not churn garbage per sample.
// Platform gauges are written after the observer's counters, so on a key
// collision the platform's value wins.
func (pl *Platform) MetricsSnapshotInto(m map[string]uint64) {
	if pl.cfg.Obs != nil {
		pl.cfg.Obs.MetricsSnapshotInto(m)
	}
	m["sim.instret"] = pl.Instret()
	m["sim.time_ns"] = uint64(pl.Sim.Now())

	// Decode-cache statistics. Hits are derived, not counted on the hot
	// path: every retired instruction fetched through the cache except the
	// fills and the uncached fetches. IRQ-taken steps retire without a
	// fetch, so clamp the difference.
	var fills, uncached uint64
	if pl.Core != nil {
		fills, uncached = pl.Core.DecodeCacheStats()
	} else {
		fills, uncached = pl.TaintCore.DecodeCacheStats()
	}
	misses := fills + uncached
	var hits uint64
	if total := pl.Instret(); total > misses {
		hits = total - misses
	}
	m["sim.decode_cache_fills"] = fills
	m["sim.decode_cache_hits"] = hits
	m["sim.decode_cache_misses"] = misses

	// Flight-recorder statistics. The capture cost is calibrated once per
	// process (a timed loop over a throwaway ring), not measured in the hot
	// path — measuring would cost more than the capture.
	if fr := pl.cfg.Flight; fr != nil {
		m["flight.ring_occupancy"] = uint64(fr.Len())
		m["flight.ring_size"] = uint64(fr.Size())
		m["flight.captured_total"] = fr.Captured()
		m["flight.dropped_total"] = fr.Dropped()
		m["flight.bundles_total"] = fr.Bundles()
		m["flight.capture_cost_ns"] = flight.CaptureCostNs()
	}

	// Bus-monitor drop counts (observer-attached platforms only).
	var dropped uint64
	for _, nm := range pl.monitors {
		d := nm.m.Dropped()
		m[nm.key] = d
		dropped += d
	}
	if pl.monitors != nil {
		m["bus.monitor_dropped"] = dropped
	}

	if t := pl.cfg.Trace; t.Active() {
		if t.Kernel != nil {
			m["trace.kernel_events"] = t.Kernel.EventCount()
			m["trace.kernel_dropped"] = t.Kernel.Dropped()
		}
		if t.VCD != nil {
			m["trace.vcd_changes"] = uint64(t.VCD.Changes())
		}
		if t.Prof != nil {
			m["trace.prof_retired"] = t.Prof.Total()
		}
	}

	if cv := pl.cfg.Cover; cv.Active() {
		if cv.Guest != nil {
			s := cv.Guest.Stats()
			m["cover.guest_insns"] = uint64(s.Insns)
			m["cover.guest_insns_covered"] = uint64(s.InsnsCovered)
			m["cover.guest_blocks"] = uint64(s.Blocks)
			m["cover.guest_blocks_covered"] = uint64(s.BlocksCovered)
			m["cover.guest_edges"] = uint64(s.Edges)
			m["cover.guest_edges_covered"] = uint64(s.EdgesCovered)
		}
		if cv.Taint != nil && pl.ram != nil {
			m["cover.taint_ever_bytes"] = cv.Taint.EverTainted()
			m["cover.taint_churn"] = cv.Taint.ChurnTotal()
		}
		if cv.Audit != nil && cv.Audit.Configured() {
			m["cover.audit_fetch_checks"] = cv.Audit.Fetch.Checks
			m["cover.audit_branch_checks"] = cv.Audit.Branch.Checks
			m["cover.audit_memaddr_checks"] = cv.Audit.MemAddr.Checks
			m["cover.audit_dead_rules"] = uint64(cv.Audit.DeadRuleCount())
		}
	}

	// Mirror the derived gauges into the observer's registry.
	if o := pl.cfg.Obs; o != nil {
		reg := o.Metrics()
		*reg.Counter("sim.decode_cache_fills") = fills
		*reg.Counter("sim.decode_cache_hits") = hits
		*reg.Counter("sim.decode_cache_misses") = misses
		*reg.Counter("bus.monitor_dropped") = dropped
	}
}

// Observer returns the attached observer, nil when observability is off.
func (pl *Platform) Observer() *obs.Observer { return pl.cfg.Obs }

// Telemetry returns the attached metrics sampler, nil when telemetry is off.
func (pl *Platform) Telemetry() *telemetry.Sampler { return pl.cfg.Telemetry }

// Now returns the current simulated time.
func (pl *Platform) Now() kernel.Time { return pl.Sim.Now() }

// TaintSummary counts RAM bytes per security class — a debugging aid for
// policy development ("how far did the secret spread?"). It returns nil on
// the baseline platform.
func (pl *Platform) TaintSummary() map[string]uint64 {
	if pl.ram == nil {
		return nil
	}
	counts := make([]uint64, pl.policy.L.Size())
	for _, b := range pl.ram.Data() {
		if int(b.T) < len(counts) {
			counts[b.T]++
		}
	}
	out := make(map[string]uint64, len(counts))
	for tag, n := range counts {
		if n > 0 {
			out[pl.policy.L.Name(core.Tag(tag))] = n
		}
	}
	return out
}

// TaintedRanges lists the maximal RAM ranges whose bytes carry a class
// other than the policy default, as "[start, end) CLASS" strings in address
// order. Empty on the baseline platform.
func (pl *Platform) TaintedRanges() []string {
	if pl.ram == nil {
		return nil
	}
	var out []string
	data := pl.ram.Data()
	def := pl.policy.Default
	i := 0
	for i < len(data) {
		if data[i].T == def {
			i++
			continue
		}
		tag := data[i].T
		start := i
		for i < len(data) && data[i].T == tag {
			i++
		}
		out = append(out, fmt.Sprintf("[0x%08x, 0x%08x) %s",
			RAMBase+uint32(start), RAMBase+uint32(i), pl.policy.L.Name(tag)))
	}
	return out
}

// ReadRAM copies size bytes of RAM at the given bus address (values only).
func (pl *Platform) ReadRAM(addr, size uint32) ([]byte, error) {
	if addr < RAMBase {
		return nil, fmt.Errorf("soc: 0x%x below RAM", addr)
	}
	off := addr - RAMBase
	if pl.Core != nil {
		d := pl.plainRAM.Data()
		if uint64(off)+uint64(size) > uint64(len(d)) {
			return nil, fmt.Errorf("soc: read beyond RAM")
		}
		return append([]byte(nil), d[off:off+size]...), nil
	}
	d := pl.ram.Data()
	if uint64(off)+uint64(size) > uint64(len(d)) {
		return nil, fmt.Errorf("soc: read beyond RAM")
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = d[off+uint32(i)].V
	}
	return out, nil
}
