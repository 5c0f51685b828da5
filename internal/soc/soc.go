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

// DefaultRAMSize is the 8 MiB RAM window at RAMBase. Load sizes a
// platform's RAM to its guest (see ramSize), counting classifying policy
// regions only inside this window; a profiler built before the guest is
// known covers it.
const DefaultRAMSize = 8 << 20

// ramSize is the platform's one RAM sizing rule, applied at Load unless
// Config.RAMSize overrides it: the end of the image or of the highest
// classifying policy region inside the RAM window, whichever is higher,
// rounded up to 4 KiB. No headroom is added: every guest in this
// repository keeps its stack inside its image (crt0's __stack_top) and has
// no heap, and TestRAMSizeParity holds that none touches RAM past that
// end. An access past the sized RAM is a guest bus fault; a guest that
// uses RAM past its image sets Config.RAMSize.
func ramSize(img *asm.Image, pol *core.Policy) uint32 {
	const window = RAMBase + DefaultRAMSize
	end := uint64(img.End())
	if pol != nil {
		for i := range pol.Regions {
			if r := &pol.Regions[i]; r.Classify && r.Start < window && r.End > RAMBase {
				end = max(end, min(uint64(r.End), window))
			}
		}
	}
	need := (end - RAMBase + 4095) &^ 4095
	return uint32(min(need, 1<<32-RAMBase))
}

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
	// RAMSize, when non-zero, is the RAM Load allocates instead of the
	// size it derives from the guest (see ramSize). An image that does not
	// fit fails Load.
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
	// the bus's trace hook for the data-carrying peripherals' transactions.
	// Nil (the default) keeps all hook sites on their one-branch fast path.
	Obs *obs.Observer
	// Trace, when non-nil with at least one view enabled, wires the
	// simulation-side observability layer: kernel/bus event recording
	// (Trace.Kernel), waveform probes over CPU and peripheral state
	// (Trace.VCD), and the guest hot-path profiler (Trace.Prof, a flight
	// stream subscriber). Nil keeps every hook site on its one-branch fast
	// path.
	Trace *trace.Trace
	// Cover, when non-nil with at least one view enabled, wires the
	// coverage-observability layer: guest block/edge coverage (Cover.Guest,
	// a flight stream subscriber), taint heatmaps and register occupancy
	// (Cover.Taint), and the policy audit with per-lattice-edge hit counters
	// (Cover.Audit). On the baseline VP only the guest view applies. Nil
	// keeps the VP+ core's post-retire hook on its one-branch fast path.
	Cover *cover.Cover
	// Telemetry, when non-nil, runs a periodic metrics sampler on a kernel
	// daemon process: every Sampler.Options().Every of simulated time it
	// snapshots MetricsSnapshotInto into its bounded ring. Daemon processes
	// never keep an unbounded Run alive, so enabling telemetry does not
	// change when a simulation ends. Nil (the default) spawns nothing.
	Telemetry *telemetry.Sampler
	// Flight is the always-on flight recorder (internal/flight): a small
	// overwrite-oldest ring of per-retire records plus IRQ/trap/bus marks,
	// frozen into a forensic bundle when the run stops on a violation or
	// guest fault (see forensics.go). Its record stream is also the only
	// per-retire tap: the profiler and guest coverage subscribe to it, as
	// may the caller before New. Nil selects a default-sized recorder.
	// FlightOff freezes no bundle; with no subscriber it also disables
	// capture entirely (the recorder-off flavour the benchmark prices the
	// recorder against).
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

	// Exactly one of the two cores is non-nil; cpu is that core.
	Core      *rv32.Core
	TaintCore *rv32.TaintCore
	cpu       cpu

	policy   *core.Policy
	ram      *mem.Memory      // VP+ RAM, allocated by Load
	plainRAM *mem.PlainMemory // VP RAM, allocated by Load

	cfg      Config
	irqEvent *kernel.Event
	exited   bool
	exitCode uint32
	loaded   bool

	// counts and checks are the counter sets installed on the policy's
	// lattice and on the policy when an observer or the policy audit is
	// attached: lub_ops is the sum of the join matrix, checks.*,
	// violations.* and io.* read the enforcement set, and the audit
	// reports both. ioKeys caches each port's io.<port>.bytes name.
	counts *core.LatticeCounts
	checks *core.EnforcementCounts
	ioKeys []string

	// fr is the record stream the core captures into and the marks land on:
	// cfg.Flight, or a recorder kept only for subscribers under FlightOff,
	// or nil when nothing captures.
	fr *flight.Recorder

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

// cpu is the platform's view of its core, whichever flavour New built. Load,
// the memory probes and forensics, which need the flavour's RAM or register
// types, use Platform.Core or Platform.TaintCore.
type cpu interface {
	Run(max uint64, delay *kernel.Time) (uint64, rv32.RunStatus, error)
	SetIRQ(line uint32, level bool)
	PendingIRQ() bool
	Halt()
	Position() (pc uint32, instret uint64)
	DecodeCacheStats() (fills, uncached uint64)
}

// New builds a platform. The baseline VP is built when cfg.Policy is nil.
func New(cfg Config) (*Platform, error) {
	if cfg.Quantum == 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.InstrTime == 0 {
		cfg.InstrTime = DefaultInstrTime
	}
	// The flight recorder is on by default: a fixed ~96 KiB ring is the
	// price of having forensics for every verdict anywhere in a fleet. Its
	// record stream feeds every per-instruction consumer, wired here as one
	// subscriber list.
	var subs []func([]flight.Rec)
	if cfg.Trace != nil && cfg.Trace.Prof != nil {
		subs = append(subs, cfg.Trace.Prof.OnRecords)
	}
	if cfg.Cover != nil && cfg.Cover.Guest != nil {
		subs = append(subs, cfg.Cover.Guest.OnRecords)
	}
	fr := cfg.Flight
	if fr == nil && (!cfg.FlightOff || len(subs) > 0) {
		fr = flight.New(0)
	}
	for _, f := range subs {
		fr.Subscribe(f)
	}
	if cfg.FlightOff {
		cfg.Flight = nil
		if fr != nil && !fr.Subscribed() {
			fr = nil
		}
	} else {
		cfg.Flight = fr
	}
	pl := &Platform{
		Sim: kernel.New(),
		Bus: tlm.NewBus(),
		cfg: cfg,
		fr:  fr,
	}
	pl.irqEvent = pl.Sim.NewEvent("irq")

	// Simulation-side tracing hooks in before any process spawns so process
	// creation is part of the record.
	if cfg.Trace.Active() {
		pl.Sim.SetTracer(cfg.Trace)
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

	// CPU. Its RAM comes at Load, sized to the guest. The flight recorder
	// takes its retire stream; the recorder's MMIO marks come from the bus
	// trace hook below.
	if pol == nil {
		pl.Core = rv32.NewCore(pl.Bus)
		pl.Core.FR = fr
		pl.cpu = pl.Core
	} else {
		pl.TaintCore = rv32.NewTaintCore(pl.Bus, pol)
		pl.TaintCore.ForceBusMem = cfg.TaintMemViaTLM
		pl.TaintCore.FR = fr
		pl.TaintCore.Obs = cfg.Obs // the baseline core has no taint to record
		pl.cpu = pl.TaintCore
	}
	setIRQ := func(line uint32, level bool) {
		pl.cpu.SetIRQ(line, level)
		if level {
			if fr != nil {
				fr.MarkIRQ(pl.Instret(), line)
			}
			pl.irqEvent.Notify(0)
		}
	}

	// Observability: attach the observer to simulated time and the security
	// context, and register the data-carrying peripherals' register windows
	// for MMIO provenance and bus events.
	if o := cfg.Obs; o != nil {
		var lat *core.Lattice
		var def core.Tag
		if pol != nil {
			lat, def = pol.L, pol.Default
		}
		o.Attach(func() uint64 { return uint64(pl.Sim.Now()) }, lat, def)
		env.Obs = o
		o.RegisterPort("uart0", UARTBase, periph.UARTSize)
		o.RegisterPort("can0", CANBase, periph.CANSize)
		o.RegisterPort("sensor0", SensorBase, periph.SensorSize)
		o.RegisterPort("aes0", AESBase, periph.AESSize)
		o.RegisterPort("dma0", DMABase, periph.DMASize)
	}
	pl.traceBus()

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
		pl.cpu.Halt()
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

	// Memory map.
	pl.Bus.MustMap("clint", CLINTBase, periph.CLINTSize, pl.CLINT)
	pl.Bus.MustMap("intc", IntCBase, periph.IntCSize, pl.IntC)
	pl.Bus.MustMap("uart0", UARTBase, periph.UARTSize, pl.UART)
	pl.Bus.MustMap("sysctrl", SysCtrlBase, periph.SysCtrlSize, pl.SysCtrl)
	pl.Bus.MustMap("can0", CANBase, periph.CANSize, pl.CAN)
	pl.Bus.MustMap("sensor0", SensorBase, periph.SensorSize, pl.Sensor)
	pl.Bus.MustMap("aes0", AESBase, periph.AESSize, pl.AES)
	pl.Bus.MustMap("dma0", DMABase, periph.DMASize, pl.DMA)

	// Default waveform probes: the CPU program counter plus the externally
	// visible peripheral state. Guests add memory and tag probes via
	// AddMemProbe / AddTagProbe between Load and Run.
	if cfg.Trace != nil && cfg.Trace.VCD != nil {
		v := cfg.Trace.VCD
		v.AddProbe("cpu_pc", 32, func() uint64 {
			pc, _ := pl.cpu.Position()
			return uint64(pc)
		})
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

	// Counter sets: the lattice's and the policy's, installed here — after
	// all wiring-time queries (Top, clearance encoding) — so set-up does
	// not count. The core, the policy's store check and the peripherals
	// count each check where they enforce it; the metrics and the audit
	// read the sets, and the core's flag caches pin while they count.
	if pol != nil && (cfg.Obs != nil || (cfg.Cover != nil && cfg.Cover.Audit != nil)) {
		pl.counts = pol.L.Count()
		pl.checks = pol.Count()
		pl.TaintCore.Counts = pl.checks
		env.Counts = pl.checks
	}

	// Coverage observability: bind the audit to the counter sets and hand
	// the taint heatmap to the VP+ core (guest coverage already subscribed
	// to the flight stream); Load sizes the views to the RAM it allocates.
	if cv := cfg.Cover; cv.Active() && pol != nil {
		if cv.Audit != nil {
			cv.Audit.Configure(pol, pl.counts, pl.checks)
		}
		pl.TaintCore.Cov = cv.Taint
	}

	pl.spawnCPU()

	// Live telemetry rides on a daemon process spawned after the CPU so the
	// first tick observes a platform that has already started executing.
	if cfg.Telemetry != nil {
		cfg.Telemetry.Start(pl.Sim, pl.MetricsSnapshotInto)
	}
	return pl, nil
}

// traceBus assigns the bus's trace hook, the one source of every bus event:
// the kernel trace records each routed transaction, and the flight
// recorder's MMIO marks and the observer's bus events take those outside
// RAM. RAM traffic is left out of both because under TaintMemViaTLM every
// data access is a bus transaction: it would evict the instruction window
// a bundle is for, and the observer records RAM flows per instruction.
// What the marks and the events need of a range, the hook resolves at the
// range's first transaction and then finds by the range's id.
func (pl *Platform) traceBus() {
	var kt *trace.KernelTrace
	if t := pl.cfg.Trace; t.Active() {
		kt = t.Kernel
	}
	fr, o := pl.fr, pl.cfg.Obs
	if kt == nil && fr == nil && o == nil {
		return
	}
	type busRange struct {
		resolved bool
		name     uint16 // the flight recorder's id of the range name
		port     obs.BusPort
	}
	var ranges []busRange // by range id; 0 is an unmapped address
	pl.Bus.Trace = func(id int, name string, p *tlm.Payload) {
		if kt != nil {
			kt.OnBus(pl.Sim.Now(), name, p)
		}
		if name == "ram" {
			return
		}
		if id >= len(ranges) {
			ranges = append(ranges, make([]busRange, id+1-len(ranges))...)
		}
		r := &ranges[id]
		if !r.resolved {
			r.resolved = true
			if fr != nil {
				r.name = fr.Intern(name)
			}
			if o != nil {
				r.port = o.BusPort(name)
			}
		}
		if fr != nil {
			fr.MarkBusID(pl.Instret(), r.name, p.Addr, p.Cmd == tlm.Write, len(p.Data))
		}
		if o != nil {
			o.OnBus(r.port, p)
		}
	}
}

// Cover returns the attached coverage bundle, nil when coverage is off.
func (pl *Platform) Cover() *cover.Cover { return pl.cfg.Cover }

// Trace returns the attached trace bundle, nil when simulation-side tracing
// is off.
func (pl *Platform) Trace() *trace.Trace { return pl.cfg.Trace }

// AddMemProbe registers a waveform probe on the 32-bit little-endian RAM
// word at bus address addr. Call after Load, which sizes the RAM, and
// before Run; requires an attached VCD view.
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
// only; call after Load and before Run.
func (pl *Platform) AddTagProbe(name string, addr uint32) error {
	if pl.cfg.Trace == nil || pl.cfg.Trace.VCD == nil {
		return fmt.Errorf("soc: no VCD view attached")
	}
	if pl.policy == nil {
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

// spawnCPU starts the CPU process. Each dispatch executes quanta until one
// needs simulated time to pass: an ordinary quantum re-arms the process
// after its duration; WFI puts it to sleep, and a sleeping CPU re-arms on the
// IRQ event until an interrupt is pending. The flight stream is flushed right
// after each quantum: only once the CPU returns can another process (the
// telemetry sampler), a workload's drive loop or Run's caller read what the
// subscribers hold.
func (pl *Platform) spawnCPU() {
	sleeping := false
	pl.Sim.Spawn("cpu", func(p *kernel.Process) {
		for {
			if sleeping {
				if !pl.cpu.PendingIRQ() && !pl.Sim.Stopped() {
					p.WakeOn(pl.irqEvent)
					return
				}
				sleeping = false
			}
			var delay kernel.Time
			n, st, err := pl.cpu.Run(pl.cfg.Quantum, &delay)
			if pl.fr != nil {
				pl.fr.Flush()
			}
			if err != nil {
				pl.Sim.Fatal(err)
				return
			}
			advance := kernel.Time(n)*pl.cfg.InstrTime + delay
			switch st {
			case rv32.RunHalt:
				pl.Sim.Stop()
				return
			case rv32.RunWFI:
				if fr := pl.fr; fr != nil {
					fr.MarkEvent(pl.Instret(), "wfi-sleep")
				}
				sleeping = true
				if advance > 0 {
					p.WakeAfter(advance)
					return
				}
				// A zero-length WFI checks for a pending interrupt in this
				// same dispatch, and keeps running if one is.
			default:
				p.WakeAfter(advance)
				return
			}
		}
	})
}

// Load allocates the platform's RAM, sized to the guest by ramSize unless
// Config.RAMSize overrides it, places a program image into it and points
// the CPU at its entry. On the DIFT platform every loaded byte is
// classified per the policy's region rules (program text typically HI, key
// material HC/HI, everything else the default class); classification rules
// also apply to untouched RAM such as zero-initialized key buffers.
func (pl *Platform) Load(img *asm.Image) error {
	if pl.loaded {
		return fmt.Errorf("soc: image already loaded")
	}
	if img.Base < RAMBase {
		return fmt.Errorf("soc: image base 0x%x below RAM base 0x%x", img.Base, RAMBase)
	}
	flat := img.Flatten()
	offset := img.Base - RAMBase
	size := pl.cfg.RAMSize
	if size == 0 {
		size = ramSize(img, pl.policy)
	}
	if uint64(offset)+uint64(len(flat)) > uint64(size) {
		return fmt.Errorf("soc: image of %d bytes at 0x%08x does not fit %d bytes of RAM", len(flat), img.Base, size)
	}
	pl.cfg.RAMSize = size
	pl.imgDigest = imageDigest(img, flat)
	// The profiler and the coverage reports symbolize against the loaded
	// image.
	if pl.cfg.Trace != nil && pl.cfg.Trace.Prof != nil {
		pl.cfg.Trace.Prof.SetImage(img)
	}
	if cv := pl.cfg.Cover; cv != nil && cv.Guest != nil {
		cv.Guest.Configure(RAMBase, size)
		cv.Guest.SetImage(img)
	}
	// The observer keeps RAM words' provenance in a table sized here,
	// before classify pins its roots.
	if o := pl.cfg.Obs; o != nil {
		o.SizeRAM(RAMBase, size)
	}
	// The decode cache covers the image, where every guest keeps its code
	// and stack; fetches past it decode uncached.
	icEnd := img.End() - RAMBase
	if pl.cfg.NoDecodeCache {
		icEnd = 0
	}
	var ram tlm.Target
	if pl.Core != nil {
		pl.plainRAM = mem.NewPlain(size)
		pl.Core.AttachRAM(pl.plainRAM, RAMBase)
		pl.Core.SizeDecodeCache(icEnd)
		copy(pl.plainRAM.Data()[offset:], flat)
		pl.Core.PC = img.Entry
		ram = pl.plainRAM
	} else {
		pl.ram = mem.New(size, pl.policy.Default)
		pl.TaintCore.AttachRAM(pl.ram, RAMBase)
		pl.TaintCore.SizeDecodeCache(icEnd)
		pl.classify(img, flat)
		pl.TaintCore.PC = img.Entry
		ram = pl.ram
	}
	if err := pl.Bus.Map("ram", RAMBase, size, ram); err != nil {
		return fmt.Errorf("soc: %w", err)
	}
	pl.loaded = true
	return nil
}

// classify writes the image into the VP+ RAM with each byte's class, tags
// the classifying regions outside it, and seeds the observer's provenance
// roots and the taint heatmap. The raw Data() writes fire no write hook;
// the core has not run yet, so no cache holds a stale word or tag.
func (pl *Platform) classify(img *asm.Image, flat []byte) {
	pol := pl.policy
	data := pl.ram.Data()
	offset := img.Base - RAMBase
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
	cv := pl.cfg.Cover
	if cv == nil || cv.Taint == nil {
		return
	}
	// Size the taint heatmap to this RAM. CPU stores report through the
	// core's cover hook; the write hook catches the bus-initiated writes
	// (DMA, TLM) that bypass it.
	n := uint32(len(data))
	cv.Taint.Configure(RAMBase, n, pol.L, pol.Default)
	ram := pl.ram
	ram.AddWriteHook(func(start, end uint32) {
		cv.Taint.OnMemWrite(ram.Data()[start:end], start)
	})
	// Seed the heatmap's shadow tags from the classified RAM so the
	// classification roots count as ever-tainted without counting as churn.
	// The image and the classification regions are the only bytes tagged
	// above; the rest of RAM holds the default tag the heatmap assumes.
	cv.Taint.InitFromRAM(data[offset:offset+uint32(len(flat))], offset)
	for i := range pol.Regions {
		if r := &pol.Regions[i]; r.Classify {
			lo := min(max(r.Start, RAMBase)-RAMBase, n)
			hi := min(max(r.End, RAMBase)-RAMBase, n)
			if lo < hi {
				cv.Taint.InitFromRAM(data[lo:hi], lo)
			}
		}
	}
}

// Run advances the simulation until the guest exits, a violation or error
// stops it, or the horizon passes. It returns the stopping error (a
// *core.Violation for policy violations), or nil on clean exit/horizon.
func (pl *Platform) Run(horizon kernel.Time) error {
	if !pl.loaded {
		return fmt.Errorf("soc: no image loaded")
	}
	err := pl.Sim.Run(horizon)
	// Freeze the forensic evidence at the first terminal error: append the
	// violating/faulting instruction as the window's last record and stash
	// the bundle (see forensics.go).
	if err != nil && pl.lastErr == nil {
		pl.lastErr = err
		pl.noteForensics(err)
	}
	// Hand the subscribers what the CPU process's last flush could not: the
	// terminal record and marks appended after that quantum.
	if pl.fr != nil {
		pl.fr.Flush()
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
	_, n := pl.cpu.Position()
	return n
}

// IsDIFT reports whether this is the VP+ (taint-tracking) flavour.
func (pl *Platform) IsDIFT() bool { return pl.TaintCore != nil }

// RAMSize returns the bytes of RAM Load allocated, zero before Load.
func (pl *Platform) RAMSize() uint32 {
	if !pl.loaded {
		return 0
	}
	return pl.cfg.RAMSize
}

// MetricsSnapshot returns every metric of the platform, assembled here and
// nowhere else: instructions retired, simulated nanoseconds, decode-cache
// hit/miss statistics, flight-recorder, trace-subsystem and coverage
// gauges, with an observer attached its obs.* and bus.* counters, and
// with the counter sets installed (an observer or the policy audit
// attached) lub_ops (the lattice set's joins) and, from the enforcement
// set, checks.* per check kind, violations.* per violation kind and
// io.<port>.bytes (the checks a port passed). Each key has one source.
func (pl *Platform) MetricsSnapshot() map[string]uint64 {
	m := make(map[string]uint64, 64)
	pl.MetricsSnapshotInto(m)
	return m
}

// MetricsSnapshotInto fills dst with the same view as MetricsSnapshot
// without allocating once dst has seen the key set: every key written here
// is a constant, a port's io key built once (ioKeys), or comes from the
// observer's allocation-free MetricsSnapshotInto. The telemetry sampler
// calls this once per tick into a reused map, so a long run must not churn
// garbage per sample.
func (pl *Platform) MetricsSnapshotInto(m map[string]uint64) {
	m["sim.instret"] = pl.Instret()
	m["sim.time_ns"] = uint64(pl.Sim.Now())

	// Decode-cache statistics. Hits are derived, not counted on the hot
	// path: every retired instruction fetched through the cache except the
	// fills and the uncached fetches. IRQ-taken steps retire without a
	// fetch, so clamp the difference.
	fills, uncached := pl.cpu.DecodeCacheStats()
	misses := fills + uncached
	var hits uint64
	if total := pl.Instret(); total > misses {
		hits = total - misses
	}
	m["sim.decode_cache_fills"] = fills
	m["sim.decode_cache_hits"] = hits
	m["sim.decode_cache_misses"] = misses

	if o := pl.cfg.Obs; o != nil {
		o.MetricsSnapshotInto(m)
	}
	if c := pl.checks; c != nil {
		m["lub_ops"] = pl.counts.Joins()
		for k, key := range enforcementKeys {
			p := c.Kind(core.ViolationKind(k))
			m[key.checks] = p.Checks
			if p.Violations != 0 {
				m[key.violations] = p.Violations
			}
		}
		m["checks.input"] = c.Inputs
		for i, p := range c.Ports {
			if i == len(pl.ioKeys) {
				pl.ioKeys = append(pl.ioKeys, "io."+p.Name+".bytes")
			}
			if passed := p.Checks - p.Violations; passed != 0 {
				m[pl.ioKeys[i]] = passed
			}
		}
	}

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
			m["cover.audit_dead_rules"] = uint64(cv.Audit.DeadRuleCount())
		}
	}
}

// enforcementKeys names the checks.* and violations.* metrics of each
// violation kind's clearance points.
var enforcementKeys = [...]struct{ checks, violations string }{
	core.KindOutputClearance:  {"checks.output", "violations.output-clearance"},
	core.KindFetchClearance:   {"checks.fetch", "violations.fetch-clearance"},
	core.KindBranchClearance:  {"checks.branch", "violations.branch-clearance"},
	core.KindMemAddrClearance: {"checks.mem_addr", "violations.mem-addr-clearance"},
	core.KindStoreClearance:   {"checks.store", "violations.store-clearance"},
}

// Observer returns the attached observer, nil when observability is off.
func (pl *Platform) Observer() *obs.Observer { return pl.cfg.Obs }

// Telemetry returns the attached metrics sampler, nil when telemetry is off.
func (pl *Platform) Telemetry() *telemetry.Sampler { return pl.cfg.Telemetry }

// Now returns the current simulated time.
func (pl *Platform) Now() kernel.Time { return pl.Sim.Now() }

// TaintSummary counts RAM bytes per security class — a debugging aid for
// policy development ("how far did the secret spread?"). It returns nil on
// the baseline platform and before Load.
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
// order. Empty on the baseline platform and before Load.
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
	data, _ := pl.memWindow(addr, size)
	if data == nil {
		return nil, fmt.Errorf("soc: read beyond RAM")
	}
	return data, nil
}
