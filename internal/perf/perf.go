// Package perf regenerates Table II of the paper: the performance overhead
// of the DIFT engine, comparing the baseline platform (VP) against the
// DIFT-enabled platform (VP+) over the seven benchmark workloads.
//
// Absolute MIPS depend on the host machine; the reproduced quantity is the
// per-workload overhead factor (paper: 1.2x–2.9x, average 2.0x).
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

// Scale selects workload sizes. ScaleSmall keeps the full table under a few
// seconds (tests, benches); ScaleLarge approaches the paper's instruction
// counts (minutes of host time).
type Scale int

// Available scales.
const (
	ScaleSmall Scale = iota
	ScaleMedium
	ScaleLarge
)

// ParseScale maps a flag string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "large":
		return ScaleLarge, nil
	default:
		return 0, fmt.Errorf("perf: unknown scale %q (small|medium|large)", s)
	}
}

// Workload is one Table II row: how to build the guest and how to drive the
// platform to completion.
type Workload struct {
	Name string
	// Build produces the guest image (fresh per run).
	Build func() *asm.Image
	// Policy produces the VP+ security policy for the image. Nil selects
	// the standard code-injection policy (IFP-2, text HI, fetch clearance).
	Policy func(img *asm.Image) *core.Policy
	// Horizon bounds simulated time; 0 means run to guest exit.
	Horizon kernel.Time
	// Drive optionally interacts with the platform while it runs (the
	// immobilizer workload feeds challenges). It is invoked instead of the
	// default single Run call.
	Drive func(pl *soc.Platform, horizon kernel.Time) error
}

// codeInjectionPolicy is the default VP+ policy for the perf rows: it
// exercises tag propagation everywhere plus the per-fetch clearance check.
func codeInjectionPolicy(img *asm.Image) *core.Policy {
	l := core.IFP2()
	hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
	return core.NewPolicy(l, li).
		WithFetchClearance(hi).
		WithRegion(core.RegionRule{
			Name: "image", Start: img.Base, End: img.End(),
			Classify: true, Class: hi,
		})
}

// SessionPolicy returns the VP+ policy for a workload image: the workload's
// own policy when it has one, the standard code-injection policy otherwise.
// vp-serve uses it to run Table II workloads as live sessions.
func SessionPolicy(w Workload, img *asm.Image) *core.Policy {
	if w.Policy != nil {
		return w.Policy(img)
	}
	return codeInjectionPolicy(img)
}

// Workloads returns the seven Table II rows at the given scale.
func Workloads(scale Scale) []Workload {
	qsortN := []int{20000, 100000, 400000}[scale]
	dhryN := []int{30000, 200000, 1000000}[scale]
	primesN := []int{30000, 150000, 700000}[scale]
	sha512N := []int{96 << 10, 768 << 10, 4 << 20}[scale]
	frames := []int{20, 100, 400}[scale]
	rtosN := []int{400, 3000, 15000}[scale]
	immoRounds := []int{10, 60, 300}[scale]

	return []Workload{
		{Name: "qsort", Build: func() *asm.Image { return guest.QSort(qsortN).Image }},
		{Name: "dhrystone", Build: func() *asm.Image { return guest.Dhrystone(dhryN).Image }},
		{Name: "primes", Build: func() *asm.Image { return guest.Primes(primesN).Image }},
		{Name: "sha512", Build: func() *asm.Image { return guest.SHA512(sha512N).Image }},
		{
			Name:    "simple-sensor",
			Build:   func() *asm.Image { return guest.SimpleSensor(frames).Image },
			Horizon: kernel.Time(frames+10) * 25 * kernel.MS,
		},
		{Name: "freertos-tasks", Build: func() *asm.Image { return guest.RTOSTasks(rtosN).Image }},
		{
			Name:   "immo-fixed",
			Build:  func() *asm.Image { return immo.Firmware(immo.VariantFixed) },
			Policy: immo.BasePolicy,
			Drive:  immoDriver(immoRounds),
		},
	}
}

// immoDriver feeds the immobilizer challenge/response rounds and debug
// dumps, then quits it.
func immoDriver(rounds int) func(pl *soc.Platform, _ kernel.Time) error {
	return func(pl *soc.Platform, _ kernel.Time) error {
		challenge := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		for r := 0; r < rounds; r++ {
			challenge[0] = byte(r)
			before := len(pl.CAN.TxLog)
			pl.CAN.Deliver(0x100, challenge)
			deadline := pl.Sim.Now() + kernel.S
			for len(pl.CAN.TxLog) == before {
				if pl.Sim.Now() >= deadline {
					return fmt.Errorf("perf: immo did not answer round %d", r)
				}
				if err := pl.Run(pl.Sim.Now() + kernel.MS); err != nil {
					return err
				}
			}
			if r%8 == 0 {
				pl.UART.Inject([]byte{'d'})
			}
		}
		pl.UART.Inject([]byte{'q'})
		for {
			if exited, _ := pl.Exited(); exited {
				return nil
			}
			if err := pl.Run(pl.Sim.Now() + kernel.MS); err != nil {
				return err
			}
		}
	}
}

// Measurement is the outcome of one platform run: executed instructions and
// host wall-clock time.
type Measurement struct {
	Instr uint64
	Wall  time.Duration
}

// MIPS returns million instructions per host second.
func (m Measurement) MIPS() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return float64(m.Instr) / 1e6 / m.Wall.Seconds()
}

// Options selects the platform flavour for a single measurement run.
type Options struct {
	// DIFT selects the VP+ (with the workload's policy); false is the
	// baseline VP.
	DIFT bool
	// TLMMem routes every VP+ data access through full TLM transactions
	// (the paper's memory-interface organization) instead of the direct
	// path.
	TLMMem bool
	// NoDecodeCache disables the predecoded-instruction cache, for
	// ablation: it isolates how much of the platform's speed comes from
	// caching decode work versus the rest of the interpreter.
	NoDecodeCache bool
	// Trace attaches the simulation-side trace layer (profiler, waveform
	// probes, kernel trace) to the measured platform; nil measures the
	// undisturbed fast path. Used by the -profile smoke run of the CI perf
	// guard.
	Trace *trace.Trace
	// Cover attaches the coverage subsystem (guest coverage, taint heatmap,
	// policy audit) to the measured platform; nil measures the undisturbed
	// fast path. Used by the -cover smoke run of the CI perf guard.
	Cover *cover.Cover
	// Telemetry attaches a live-metrics sampler to the measured platform;
	// nil measures the undisturbed fast path. Used by the -telemetry smoke
	// run of the CI perf guard.
	Telemetry *telemetry.Sampler
	// FlightOff disables the always-on flight recorder for this
	// measurement. The default measures the platform as shipped (recorder
	// on); the -flight guard uses this to price the recorder.
	FlightOff bool
}

// RunOnceOpts executes and measures the workload under the given options.
func RunOnceOpts(w Workload, o Options) (Measurement, error) {
	img := w.Build()
	var pol *core.Policy
	dift := o.DIFT
	if dift {
		pol = SessionPolicy(w, img)
	}
	pl, err := soc.New(soc.Config{Policy: pol, TaintMemViaTLM: o.TLMMem, NoDecodeCache: o.NoDecodeCache, Trace: o.Trace, Cover: o.Cover, Telemetry: o.Telemetry, FlightOff: o.FlightOff})
	if err != nil {
		return Measurement{}, err
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		return Measurement{}, err
	}
	horizon := w.Horizon
	if horizon == 0 {
		horizon = kernel.Forever
	}
	start := time.Now()
	if w.Drive != nil {
		err = w.Drive(pl, horizon)
	} else {
		err = pl.Run(horizon)
	}
	wall := time.Since(start)
	if err != nil {
		return Measurement{}, fmt.Errorf("perf: %s (dift=%v): %w", w.Name, dift, err)
	}
	if exited, code := pl.Exited(); !exited {
		return Measurement{}, fmt.Errorf("perf: %s did not exit", w.Name)
	} else if code != 0 {
		return Measurement{}, fmt.Errorf("perf: %s failed its self-check (exit %d)", w.Name, code)
	}
	return Measurement{Instr: pl.Instret(), Wall: wall}, nil
}

// ProfileSmoke runs one workload with the trace layer (kernel trace +
// profiler) attached and returns the profiler for inspection. It is the CI
// guard's check that tracing coexists with the hot loop: the run must exit
// cleanly and the profiler must attribute the retired cycles.
func ProfileSmoke(w Workload, dift bool) (*trace.Profiler, Measurement, error) {
	tr := &trace.Trace{
		Kernel: trace.NewKernelTrace(0),
		Prof:   trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize),
	}
	m, err := RunOnceOpts(w, Options{DIFT: dift, Trace: tr})
	return tr.Prof, m, err
}

// CoverSmoke runs one workload with all three coverage views attached and
// returns them for inspection. It is the CI guard's check that coverage
// coexists with the hot loop: the run must exit cleanly, the views must have
// recorded data, and the measured MIPS must stay within a (generous) band of
// the archived Table II VP+ figure.
func CoverSmoke(w Workload, dift bool) (*cover.Cover, Measurement, error) {
	cv := cover.New()
	m, err := RunOnceOpts(w, Options{DIFT: dift, Cover: cv})
	return cv, m, err
}

// TelemetrySmoke runs one workload with a live-telemetry sampler ticking at
// the given simulated-time period and returns the sampler for inspection. It
// is the CI guard's check that the sampler daemon coexists with the hot
// loop: the run must exit cleanly and the captured timeseries must be
// well-formed (checked by the caller).
func TelemetrySmoke(w Workload, dift bool, every kernel.Time) (*telemetry.Sampler, Measurement, error) {
	smp := telemetry.NewSampler(telemetry.Options{Every: every})
	m, err := RunOnceOpts(w, Options{DIFT: dift, Telemetry: smp})
	return smp, m, err
}

// Row is one completed Table II row.
type Row struct {
	Name   string
	Instr  uint64
	LoCASM int
	VP     Measurement
	VPPlus Measurement
}

// Overhead is the VP+ / VP slowdown factor.
func (r Row) Overhead() float64 {
	if r.VP.Wall <= 0 {
		return 0
	}
	return r.VPPlus.Wall.Seconds() / r.VP.Wall.Seconds()
}

// RunRowBest measures both flavours reps times each and keeps the fastest
// measurement per flavour. The simulator is deterministic, so repeated runs
// execute identical instruction streams; wall-clock differences are host
// noise (shared runners, frequency scaling), and best-of-N measures what the
// code can do rather than what the host happened to allow. The CI perf
// guard uses reps=3 so a single contended run cannot fail the build.
func RunRowBest(w Workload, tlmMem bool, reps int) (Row, error) {
	vp, err := bestOf(w, reps, Options{})
	if err != nil {
		return Row{}, err
	}
	vpp, err := bestOf(w, reps, Options{DIFT: true, TLMMem: tlmMem})
	if err != nil {
		return Row{}, err
	}
	return newRow(w, vp[0], vpp[0]), nil
}

// RunRowFlightPair measures one workload's flavours with the flight
// recorder on (as shipped) and off. Each repetition runs all four
// configurations back to back, alternating their order, so they see the
// same host conditions and the on/off difference prices the recorder
// rather than host drift between two phases.
func RunRowFlightPair(w Workload, tlmMem bool, reps int) (on, off Row, err error) {
	m, err := bestOf(w, reps,
		Options{}, Options{FlightOff: true},
		Options{DIFT: true, TLMMem: tlmMem}, Options{DIFT: true, TLMMem: tlmMem, FlightOff: true})
	if err != nil {
		return Row{}, Row{}, err
	}
	return newRow(w, m[0], m[2]), newRow(w, m[1], m[3]), nil
}

func newRow(w Workload, vp, vpp Measurement) Row {
	return Row{
		Name:   w.Name,
		Instr:  vp.Instr,
		LoCASM: w.Build().TextWords(),
		VP:     vp,
		VPPlus: vpp,
	}
}

// bestOf runs w under each of opts reps times, interleaving the
// configurations within every repetition (alternating their order), and
// keeps the fastest measurement per configuration (see RunRowBest).
func bestOf(w Workload, reps int, opts ...Options) ([]Measurement, error) {
	if reps < 1 {
		reps = 1
	}
	best := make([]Measurement, len(opts))
	n := reps
	for r := 0; r < n; r++ {
		for k := range opts {
			j := k
			if r%2 == 1 {
				j = len(opts) - 1 - k
			}
			got, err := RunOnceOpts(w, opts[j])
			if err != nil {
				return nil, err
			}
			if r == 0 || got.Wall < best[j].Wall {
				best[j] = got
			}
		}
		if r == 0 && reps > 1 && slices.ContainsFunc(best, func(m Measurement) bool { return m.Wall < 200*time.Millisecond }) {
			// Sub-200ms workloads are dominated by scheduling noise; a
			// single contended slice skews the whole measurement. Triple
			// the repetitions — the extra runs cost well under a second.
			n = reps * 3
		}
	}
	return best, nil
}

// ReportRow is one Table II row in the machine-readable report.
type ReportRow struct {
	Name       string  `json:"name"`
	Instr      uint64  `json:"instructions"`
	LoCASM     int     `json:"loc_asm"`
	VPSecs     float64 `json:"vp_seconds"`
	VPPlusSecs float64 `json:"vp_plus_seconds"`
	VPMIPS     float64 `json:"vp_mips"`
	VPPlusMIPS float64 `json:"vp_plus_mips"`
	Overhead   float64 `json:"overhead_factor"`
}

// ReportMeta records the conditions a report was measured under, so a
// baseline diff can tell a code regression from a host change. SampleEveryNS
// is the telemetry smoke's sampling period (0 when the smoke did not run).
type ReportMeta struct {
	GoVersion     string `json:"go_version"`
	OS            string `json:"os"`
	Arch          string `json:"arch"`
	NumCPU        int    `json:"num_cpu"`
	Reps          int    `json:"reps"`
	SampleEveryNS uint64 `json:"sample_every_ns,omitempty"`
}

// NewReportMeta captures the current host and run configuration.
func NewReportMeta(reps int, sampleEvery kernel.Time) ReportMeta {
	return ReportMeta{
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Reps:          reps,
		SampleEveryNS: uint64(sampleEvery),
	}
}

// Report is the machine-readable Table II comparison, written next to the
// human-readable table so CI or plotting scripts can diff runs.
type Report struct {
	Scale           string      `json:"scale"`
	TLMMem          bool        `json:"tlm_mem"`
	Meta            *ReportMeta `json:"meta,omitempty"`
	Rows            []ReportRow `json:"rows"`
	AverageOverhead float64     `json:"average_overhead"`
}

// NewReport converts measured rows into a Report.
func NewReport(scale string, tlmMem bool, rows []Row) Report {
	rep := Report{Scale: scale, TLMMem: tlmMem}
	var sumOv float64
	for _, r := range rows {
		rr := ReportRow{
			Name:       r.Name,
			Instr:      r.Instr,
			LoCASM:     r.LoCASM,
			VPSecs:     r.VP.Wall.Seconds(),
			VPPlusSecs: r.VPPlus.Wall.Seconds(),
			VPMIPS:     r.VP.MIPS(),
			VPPlusMIPS: r.VPPlus.MIPS(),
			Overhead:   r.Overhead(),
		}
		rep.Rows = append(rep.Rows, rr)
		sumOv += r.Overhead()
	}
	if len(rows) > 0 {
		rep.AverageOverhead = sumOv / float64(len(rows))
	}
	return rep
}

// WriteFile writes the report as indented JSON to path.
func (rep Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report previously written with WriteFile (the CI perf
// guard's archived baseline).
func ReadFile(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	return rep, nil
}

// CheckRegression compares measured rows against a baseline report and
// returns one message per workload whose VP or VP+ MIPS fell more than
// tolerance (e.g. 0.10 for 10%) below the baseline. Workloads missing from
// either side are skipped — the guard must not fail on renamed benchmarks.
func CheckRegression(baseline Report, rows []Row, tolerance float64) []string {
	base := make(map[string]ReportRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Name] = r
	}
	var msgs []string
	check := func(name, flavour string, got, want float64) {
		if want > 0 && got < want*(1-tolerance) {
			msgs = append(msgs, fmt.Sprintf(
				"%s: %s %.1f MIPS is %.1f%% below baseline %.1f MIPS (tolerance %.0f%%)",
				name, flavour, got, (1-got/want)*100, want, tolerance*100))
		}
	}
	for _, r := range rows {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		check(r.Name, "VP", r.VP.MIPS(), b.VPMIPS)
		check(r.Name, "VP+", r.VPPlus.MIPS(), b.VPPlusMIPS)
	}
	return msgs
}

// group3 formats an integer with thousands separators, as in the paper.
func group3(v uint64) string {
	s := fmt.Sprintf("%d", v)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}

// Table renders rows in the paper's Table II layout plus the average line.
func Table(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %16s %8s %9s %9s %7s %7s %6s",
		"Benchmark", "#instr. exec.", "LoC ASM", "VP [s]", "VP+ [s]", "VP", "VP+", "Ov.")
	fmt.Fprintf(&b, "\n%-16s %16s %8s %9s %9s %7s %7s %6s\n",
		"", "", "", "(sim time)", "", "(MIPS)", "", "")
	var sumInstr, n uint64
	var sumLoC int
	var sumVP, sumVPP float64
	var sumMipsVP, sumMipsVPP, sumOv float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %16s %8d %9.2f %9.2f %7.1f %7.1f %5.1fx\n",
			r.Name, group3(r.Instr), r.LoCASM,
			r.VP.Wall.Seconds(), r.VPPlus.Wall.Seconds(),
			r.VP.MIPS(), r.VPPlus.MIPS(), r.Overhead())
		sumInstr += r.Instr
		sumLoC += r.LoCASM
		sumVP += r.VP.Wall.Seconds()
		sumVPP += r.VPPlus.Wall.Seconds()
		sumMipsVP += r.VP.MIPS()
		sumMipsVPP += r.VPPlus.MIPS()
		sumOv += r.Overhead()
		n++
	}
	if n > 0 {
		f := float64(n)
		fmt.Fprintf(&b, "%-16s %16s %8d %9.2f %9.2f %7.1f %7.1f %5.1fx\n",
			"- average -", group3(sumInstr/n), sumLoC/int(n),
			sumVP/f, sumVPP/f, sumMipsVP/f, sumMipsVPP/f, sumOv/f)
	}
	return b.String()
}
