// Package vpdift is a virtual-prototype-based dynamic information flow
// tracking (DIFT) engine for embedded RISC-V binaries — a from-scratch Go
// reproduction of "Dynamic Information Flow Tracking for Embedded Binaries
// using SystemC-based Virtual Prototypes" (DAC 2020).
//
// The package is a thin facade over the implementation packages:
//
//   - a deterministic discrete-event simulation kernel (the SystemC
//     substitute) and a TLM-style bus whose payloads carry tainted bytes;
//   - an RV32IM instruction-set simulator in two flavours: the plain
//     baseline core ("VP") and the tag-propagating DIFT core ("VP+") with
//     the paper's execution-clearance checks;
//   - a peripheral set (UART, sensor, CLINT, interrupt controller, DMA,
//     CAN, AES with declassification, SysCtrl);
//   - an RV32IM assembler so guest binaries can be built in-process;
//   - security policies: IFP lattices, classification, clearance,
//     declassification.
//
// # Quick start
//
//	img, err := vpdift.BuildProgram(`
//	main:
//	    la a0, msg
//	    tail uart_puts
//	    .data
//	msg: .asciz "hello\n"
//	`)
//	...
//	lat := vpdift.IFP1()
//	pol := vpdift.NewPolicy(lat, lat.MustTag(vpdift.ClassLC)).
//	    WithOutput("uart0.tx", lat.MustTag(vpdift.ClassLC))
//	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol))
//	...
//	err = pl.Load(img)
//	res, err := pl.Run(vpdift.Forever) // res.Violation on policy violations
//
// Attach an Observer (vpdift.WithObserver(vpdift.NewObserver())) to record
// taint-propagation provenance: a violation then carries the ordered event
// chain from the classification site to the failed clearance check.
package vpdift

import (
	"errors"
	"fmt"
	"io"
	"log/slog"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/periph"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/tlm"
	"vpdift/internal/trace"
)

// Security-policy types.
type (
	// Tag identifies a security class within a Lattice.
	Tag = core.Tag
	// Lattice is an information flow policy: a join-semilattice of
	// security classes with LUB and AllowedFlow.
	Lattice = core.Lattice
	// Policy bundles an IFP with classification and clearance assignments.
	Policy = core.Policy
	// RegionRule attaches classification/store-clearance to address ranges.
	RegionRule = core.RegionRule
	// ExecClearance configures the CPU's execution-clearance checks.
	ExecClearance = core.ExecClearance
	// Violation is the runtime error raised on policy violations.
	Violation = core.Violation
	// ViolationKind classifies where a violation was detected.
	ViolationKind = core.ViolationKind
	// Word is a tainted 32-bit value.
	Word = core.Word
	// TByte is a tainted byte.
	TByte = core.TByte
)

// Violation kinds.
const (
	KindOutputClearance  = core.KindOutputClearance
	KindFetchClearance   = core.KindFetchClearance
	KindBranchClearance  = core.KindBranchClearance
	KindMemAddrClearance = core.KindMemAddrClearance
	KindStoreClearance   = core.KindStoreClearance
)

// Standard security-class names used by the IFP constructors.
const (
	ClassLC = core.ClassLC
	ClassHC = core.ClassHC
	ClassHI = core.ClassHI
	ClassLI = core.ClassLI
)

// NewLattice builds an IFP from classes and allowed-flow edges.
func NewLattice(classes []string, edges [][2]string) (*Lattice, error) {
	return core.NewLattice(classes, edges)
}

// IFP1 is the confidentiality lattice of the paper's Fig. 1 (LC -> HC).
func IFP1() *Lattice { return core.IFP1() }

// IFP2 is the integrity lattice of Fig. 1 (HI -> LI).
func IFP2() *Lattice { return core.IFP2() }

// IFP3 is the combined confidentiality+integrity product lattice of Fig. 1.
func IFP3() *Lattice { return core.IFP3() }

// Product combines two IFPs into their product lattice.
func Product(a, b *Lattice) (*Lattice, error) { return core.Product(a, b) }

// PerByteKeyIntegrity builds the per-key-byte integrity lattice used by the
// immobilizer case study's final fix.
func PerByteKeyIntegrity(keyBytes int) (*Lattice, error) {
	return core.PerByteKeyIntegrity(keyBytes)
}

// NewPolicy creates an empty policy over a lattice with a default class.
func NewPolicy(l *Lattice, defaultClass Tag) *Policy { return core.NewPolicy(l, defaultClass) }

// Simulation time.
type Time = kernel.Time

// Time units and the unbounded horizon.
const (
	NS      = kernel.NS
	US      = kernel.US
	MS      = kernel.MS
	S       = kernel.S
	Forever = kernel.Forever
)

// Toolchain types.
type (
	// Image is an assembled guest program.
	Image = asm.Image
	// AsmOptions configures assembly.
	AsmOptions = asm.Options
)

// Assemble translates raw RV32IM assembly into a loadable image.
func Assemble(src string, opts AsmOptions) (*Image, error) { return asm.Assemble(src, opts) }

// BuildProgram assembles a guest program body against the bundled runtime
// (crt0, UART console I/O, setjmp/longjmp, rand, the platform's MMIO
// equates). The body must define main.
func BuildProgram(body string) (*Image, error) { return guest.Program(body) }

// Platform types.
type (
	// UART is the console peripheral.
	UART = periph.UART
	// Sensor is the paper's Fig. 4 sensor peripheral.
	Sensor = periph.Sensor
	// CAN is the CAN-bus endpoint.
	CAN = periph.CAN
	// CANFrame is a CAN frame with tainted payload bytes.
	CANFrame = periph.CANFrame
	// AES is the declassifying crypto engine.
	AES = periph.AES
	// DMA is the tag-preserving copy engine.
	DMA = periph.DMA
	// Bus is the TLM interconnect.
	Bus = tlm.Bus
	// Core is the baseline RV32IM ISS.
	Core = rv32.Core
	// TaintCore is the DIFT-enabled RV32IM ISS.
	TaintCore = rv32.TaintCore
)

// Platform memory map.
const (
	RAMBase     = soc.RAMBase
	UARTBase    = soc.UARTBase
	SensorBase  = soc.SensorBase
	CANBase     = soc.CANBase
	AESBase     = soc.AESBase
	DMABase     = soc.DMABase
	CLINTBase   = soc.CLINTBase
	IntCBase    = soc.IntCBase
	SysCtrlBase = soc.SysCtrlBase
)

// Observability types.
type (
	// Observer records tag-propagation provenance, peripheral I/O, bus
	// transactions, and simulation metrics. Construct with NewObserver and
	// attach via WithObserver; a nil observer costs nothing.
	Observer = obs.Observer
	// ObserverOptions tunes ring capacity and chain depth.
	ObserverOptions = obs.Options
	// TaintEvent is one recorded provenance event.
	TaintEvent = core.TaintEvent
	// TaintEventKind discriminates provenance events.
	TaintEventKind = core.TaintEventKind
)

// NewObserver creates an observability recorder with default options.
func NewObserver() *Observer { return obs.New() }

// NewObserverWithOptions creates a recorder with explicit options.
func NewObserverWithOptions(o ObserverOptions) *Observer { return obs.NewWithOptions(o) }

// Simulation-side tracing types (package internal/trace). Where the Observer
// answers "where did tainted data flow?", these answer "what did the
// simulator do, and where did the guest spend its time?".
type (
	// Trace bundles the enabled simulation-side views; leave fields nil to
	// disable them. Attach via WithTrace.
	Trace = trace.Trace
	// KernelTrace records scheduler and TLM bus events.
	KernelTrace = trace.KernelTrace
	// VCD collects waveform probes into a GTKWave-compatible value change
	// dump.
	VCD = trace.VCD
	// Profiler is the guest hot-path profiler fed by the flight recorder's
	// retire stream.
	Profiler = trace.Profiler
)

// Coverage-observability types (package internal/cover). Where the Observer
// follows individual tainted values and the Trace watches the simulator,
// these answer "what did this run actually exercise?".
type (
	// Cover bundles the enabled coverage views; leave fields nil to disable
	// them. Attach via WithCoverage.
	Cover = cover.Cover
	// GuestCov records guest basic-block and edge coverage.
	GuestCov = cover.GuestCov
	// TaintCov records taint heatmaps and register occupancy.
	TaintCov = cover.TaintCov
	// PolicyAudit records per-rule policy enforcement counts and dead rules.
	PolicyAudit = cover.PolicyAudit
)

// NewCoverage creates a coverage bundle with all three views enabled (on
// the baseline VP only the guest view records). The platform sizes the
// views at construction time.
func NewCoverage() *Cover { return cover.New() }

// Flight-recorder types (package internal/flight). The recorder is the
// always-on black box: a fixed-size overwrite-oldest ring of basic-block
// records, read back as one record per retired instruction, that costs the
// same whether or not anything ever goes wrong. When something does — a
// policy violation, a guest fault, or an explicit Snapshot — the window
// freezes into a ForensicBundle: one self-contained JSON document with the
// disassembled last-N trace, the full register and tag file, the
// violation's provenance chain, and memory/taint hexdumps around every
// address the window touched.
type (
	// FlightRecorder is the always-on last-N capture ring.
	FlightRecorder = flight.Recorder
	// ForensicBundle is a frozen post-mortem: trace window, registers,
	// tags, memory windows, policy identity and build metadata.
	ForensicBundle = flight.Bundle
	// FlightRec is one compressed flight-recorder entry.
	FlightRec = flight.Rec
)

// NewFlightRecorder creates a flight recorder with an n-entry ring (rounded
// up to a power of two; n <= 0 means the 4096-entry default). Platforms
// attach one by default — construct explicitly only to pick a different
// window size via WithFlightRecorder.
func NewFlightRecorder(n int) *FlightRecorder { return flight.New(n) }

// ValidateForensicBundle parses raw JSON as a v1 forensic bundle and checks
// its structural invariants (schema identity, register-file completeness,
// trace-record consistency).
func ValidateForensicBundle(raw []byte) (*ForensicBundle, error) {
	return flight.ValidateBundle(raw)
}

// Live-telemetry types (package internal/telemetry). Where the other
// observability layers record what happened, these watch it happen: a
// sampler snapshots the platform's metrics on a simulated-time cadence, and
// a Server runs sessions on a bounded worker pool and exposes them over the
// versioned /api/v1 HTTP surface (session lifecycle, policy x workload
// campaigns, Prometheus /metrics, JSONL timeseries, an SSE event tail).
type (
	// Sampler captures periodic metric snapshots into a bounded ring.
	// Attach via WithTelemetry; exporters: WriteJSONL, WriteCSV.
	Sampler = telemetry.Sampler
	// SamplerOptions tunes the sampling cadence and ring capacity.
	SamplerOptions = telemetry.Options
	// TelemetryServer serves one or more simulation sessions over HTTP.
	TelemetryServer = telemetry.Server
	// TelemetrySession describes one served simulation.
	TelemetrySession = telemetry.SessionConfig
	// TelemetryServerOption configures NewTelemetryServer, mirroring the
	// NewPlatform option idiom.
	TelemetryServerOption = telemetry.ServerOption
	// SessionSpec is the wire form of a session submission (workload,
	// policy, stimulus, horizon, priority, sampling).
	SessionSpec = telemetry.SessionSpec
	// SessionResult is a finished session's stored outcome.
	SessionResult = telemetry.SessionResult
	// ResultStore persists session results keyed by content hash.
	ResultStore = telemetry.ResultStore
)

// NewSampler creates a metrics sampler; zero-value options mean a 1 ms
// cadence and a 4096-sample ring.
func NewSampler(o SamplerOptions) *Sampler { return telemetry.NewSampler(o) }

// NewTelemetryServer creates a session server; submit sessions over the v1
// API (or Submit) and mount Handler on an http.Server. Options follow the
// NewPlatform idiom:
//
//	sv := vpdift.NewTelemetryServer(
//	    vpdift.WithServeWorkers(4),
//	    vpdift.WithServeQueueDepth(1024),
//	    vpdift.WithServeResultStore(store),
//	)
func NewTelemetryServer(opts ...TelemetryServerOption) *TelemetryServer {
	return telemetry.NewServer(opts...)
}

// WithServeWorkers sets the worker-pool size (default GOMAXPROCS).
func WithServeWorkers(n int) TelemetryServerOption { return telemetry.WithWorkers(n) }

// WithServeQueueDepth caps the pending-session queue; a full queue answers
// 429 with Retry-After.
func WithServeQueueDepth(n int) TelemetryServerOption { return telemetry.WithQueueDepth(n) }

// WithServeResultStore attaches a result store so repeated (image, policy,
// stimulus) submissions become cache hits.
func WithServeResultStore(st ResultStore) TelemetryServerOption {
	return telemetry.WithResultStore(st)
}

// WithServeLogger installs a structured logger on the server: request logs
// with per-request IDs, session/campaign lifecycle transitions, and drain
// progress. Without one the server logs nothing, at zero formatting cost.
func WithServeLogger(l *slog.Logger) TelemetryServerOption {
	return telemetry.WithLogger(l)
}

// NewMemResultStore creates an in-memory result store.
func NewMemResultStore() ResultStore { return telemetry.NewMemStore() }

// NewFileResultStore creates a result store persisting one JSON file per
// result under dir, surviving server restarts.
func NewFileResultStore(dir string) (ResultStore, error) { return telemetry.NewFileStore(dir) }

// WritePrometheus renders a metric snapshot (Result.Metrics, or
// Platform.MetricsSnapshot) in the Prometheus text exposition format.
func WritePrometheus(w io.Writer, metrics map[string]uint64) error {
	return telemetry.WritePrometheus(w, metrics)
}

// NewKernelTrace creates a kernel/bus event recorder keeping at most limit
// events (<= 0 means the default ring size).
func NewKernelTrace(limit int) *KernelTrace { return trace.NewKernelTrace(limit) }

// NewVCD creates an empty waveform collector.
func NewVCD() *VCD { return trace.NewVCD() }

// NewProfiler creates a guest profiler covering the default RAM window.
func NewProfiler() *Profiler { return trace.NewProfiler(RAMBase, soc.DefaultRAMSize) }

// WriteChromeTrace writes one Chrome trace_event JSON array combining
// kernel/bus records with the observer's taint events — scheduler activity,
// bus transactions and information flow on a single timeline. Either source
// may be nil.
func WriteChromeTrace(w io.Writer, kt *KernelTrace, o *Observer) error {
	return trace.WriteChromeTrace(w, kt, o)
}

// Platform is a constructed virtual prototype (VP or VP+). It embeds the SoC
// platform — peripherals, memory, and introspection helpers are promoted —
// and redefines Run to return a structured *Result.
type Platform struct {
	*soc.Platform
}

// Option configures NewPlatform. Options are applied in order; later options
// override earlier ones.
type Option interface {
	applyOption(*soc.Config)
}

type optionFunc func(*soc.Config)

func (f optionFunc) applyOption(c *soc.Config) { f(c) }

// WithPolicy enables DIFT (the VP+ flavour) under the given policy. Without
// it the platform is the untracked baseline VP.
func WithPolicy(p *Policy) Option {
	return optionFunc(func(c *soc.Config) { c.Policy = p })
}

// WithObserver attaches an observability recorder to every layer of the
// platform: core hooks, peripheral I/O, the bus's trace hook, and
// load-time classification roots.
func WithObserver(o *Observer) Option {
	return optionFunc(func(c *soc.Config) { c.Obs = o })
}

// WithTrace attaches the simulation-side observability layer: kernel/bus
// event recording, waveform probes, and the guest profiler, per the views
// enabled in t. A typical full setup:
//
//	tr := &vpdift.Trace{
//	    Kernel: vpdift.NewKernelTrace(0),
//	    VCD:    vpdift.NewVCD(),
//	    Prof:   vpdift.NewProfiler(),
//	}
//	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol), vpdift.WithTrace(tr))
func WithTrace(t *Trace) Option {
	return optionFunc(func(c *soc.Config) { c.Trace = t })
}

// WithCoverage attaches the coverage-observability layer: guest block/edge
// coverage, taint heatmaps, and the policy audit, per the views enabled in
// cv (NewCoverage enables all three). A typical setup:
//
//	cov := vpdift.NewCoverage()
//	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol), vpdift.WithCoverage(cov))
//	...
//	cov.Audit.WriteReport(os.Stdout)
func WithCoverage(cv *Cover) Option {
	return optionFunc(func(c *soc.Config) { c.Cover = cv })
}

// WithRAMSize overrides the RAM size in bytes, which Load otherwise sizes to
// the guest's image; an image that does not fit fails Load.
func WithRAMSize(bytes uint32) Option {
	return optionFunc(func(c *soc.Config) { c.RAMSize = bytes })
}

// WithQuantum overrides the TLM quantum (instructions between kernel
// synchronizations).
func WithQuantum(instructions uint64) Option {
	return optionFunc(func(c *soc.Config) { c.Quantum = instructions })
}

// WithInstrTime overrides the modeled per-instruction time.
func WithInstrTime(t Time) Option {
	return optionFunc(func(c *soc.Config) { c.InstrTime = t })
}

// WithTLMMemory routes every VP+ data access through full TLM transactions
// instead of the direct memory path (the paper's memory organization).
func WithTLMMemory() Option {
	return optionFunc(func(c *soc.Config) { c.TaintMemViaTLM = true })
}

// WithoutDecodeCache disables the predecoded-instruction cache (ablation).
func WithoutDecodeCache() Option {
	return optionFunc(func(c *soc.Config) { c.NoDecodeCache = true })
}

// WithFlightRecorder attaches a specific flight recorder — typically to
// pick a non-default window size:
//
//	pl, err := vpdift.NewPlatform(
//	    vpdift.WithPolicy(pol),
//	    vpdift.WithFlightRecorder(vpdift.NewFlightRecorder(1<<16)),
//	)
//
// Every platform carries a default 4096-entry recorder even without this
// option; use WithoutFlightRecorder to opt out entirely.
func WithFlightRecorder(r *FlightRecorder) Option {
	return optionFunc(func(c *soc.Config) { c.Flight, c.FlightOff = r, false })
}

// WithoutFlightRecorder disables the always-on flight recorder. The hot
// loops then skip capture entirely; LastForensics and Snapshot return nil.
func WithoutFlightRecorder() Option {
	return optionFunc(func(c *soc.Config) { c.Flight, c.FlightOff = nil, true })
}

// WithTelemetry attaches a live-metrics sampler: every Every of simulated
// time it snapshots the platform's merged metrics into its ring. The sampler
// rides a kernel daemon process, so it never extends a run. A typical setup:
//
//	smp := vpdift.NewSampler(vpdift.SamplerOptions{Every: vpdift.MS})
//	pl, err := vpdift.NewPlatform(vpdift.WithPolicy(pol), vpdift.WithTelemetry(smp))
//	...
//	smp.WriteJSONL(f)
func WithTelemetry(s *Sampler) Option {
	return optionFunc(func(c *soc.Config) { c.Telemetry = s })
}

// NewPlatform builds a virtual prototype. With no WithPolicy option it is
// the plain baseline VP; with one it is the DIFT-enabled VP+.
func NewPlatform(opts ...Option) (*Platform, error) {
	var cfg soc.Config
	for _, o := range opts {
		o.applyOption(&cfg)
	}
	pl, err := soc.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{pl}, nil
}

// Result is what a simulation run produced: exit status, simulation gauges,
// a full metrics snapshot, and — when the run was stopped by a policy
// violation — the violation itself, carrying its provenance chain if an
// observer was attached.
type Result struct {
	// Exited reports a guest power-off (SysCtrl), with its exit code.
	Exited   bool
	ExitCode uint32
	// Instret is the number of instructions retired.
	Instret uint64
	// SimTime is the simulated time reached.
	SimTime Time
	// Metrics is the platform's counter snapshot (sim.* gauges always;
	// obs.* and bus.* with an observer; lub_ops, checks.*, violations.* and
	// io.* with an observer or the policy audit on the VP+).
	Metrics map[string]uint64
	// Violation is non-nil when the run stopped on a policy violation.
	Violation *Violation
	// Forensics is the flight recorder's post-mortem bundle, non-nil when
	// the run stopped on a violation or fault and the recorder is enabled
	// (it is by default). On clean runs call Platform.Snapshot instead.
	Forensics *ForensicBundle
}

// Run advances the simulation until the guest exits, a violation or error
// stops it, or the horizon passes. The returned Result is always non-nil;
// the error (when non-nil) wraps any *Violation so errors.As works:
//
//	res, err := pl.Run(vpdift.Forever)
//	var v *vpdift.Violation
//	if errors.As(err, &v) { fmt.Print(v.ProvenanceReport(nil)) }
func (pl *Platform) Run(horizon Time) (*Result, error) {
	err := pl.Platform.Run(horizon)
	res := &Result{
		Instret: pl.Instret(),
		SimTime: pl.Sim.Now(),
		Metrics: pl.MetricsSnapshot(),
	}
	res.Exited, res.ExitCode = pl.Exited()
	if err != nil {
		res.Forensics = pl.LastForensics()
		var v *Violation
		if errors.As(err, &v) {
			res.Violation = v
			err = fmt.Errorf("vpdift: run stopped: %w", v)
		}
	}
	return res, err
}
