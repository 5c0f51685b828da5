// Command vp-run assembles a guest program and executes it on the virtual
// prototype, optionally with a DIFT security policy.
//
// Usage:
//
//	vp-run [flags] file.s
//
// The source is linked against the guest runtime and must define main. The
// canned policies are:
//
//	none        baseline VP, no tracking
//	conf        IFP-1 confidentiality; regions named with -secret become HC,
//	            the UART TX requires LC
//	integrity   IFP-2 code-injection policy: program image HI, HI fetch
//	            clearance, all input LI
//
// Console input is supplied with -stdin and classified as the policy's
// default (untrusted/public) class.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

func main() {
	policyName := flag.String("policy", "none", "security policy: none, conf or integrity")
	secret := flag.String("secret", "", "comma-separated symbol[:len] regions classified secret (conf policy)")
	stdin := flag.String("stdin", "", "bytes injected into the UART before the run")
	horizonMS := flag.Uint64("horizon", 10000, "simulation horizon in milliseconds")
	mapFlag := flag.Bool("map", false, "print the platform memory map before running")
	disasN := flag.Uint64("trace", 0, "disassemble the first N executed instructions to stderr")
	taintMap := flag.Bool("taintmap", false, "print the per-class RAM census and tainted ranges after the run")
	why := flag.Bool("why", false, "on violation, print the taint-provenance chain (classification site to failed check)")
	metricsOut := flag.String("metrics", "", "write the metrics snapshot as JSON to this file ('-' for stderr)")
	eventsOut := flag.String("events", "", "write the recorded taint events as JSONL to this file")
	chromeOut := flag.String("chrome", "", "write taint, kernel and bus events as one merged Chrome trace to this file")
	vcdOut := flag.String("vcd", "", "write a GTKWave-compatible waveform of CPU/peripheral probes to this file")
	watch := flag.String("watch", "", "comma-separated symbol[:probe-name] RAM words added as waveform probes (with -vcd)")
	profileOut := flag.String("profile", "", "write the guest hot-path profile top table to this file ('-' for stderr)")
	foldedOut := flag.String("folded", "", "write folded call stacks (flamegraph input) to this file")
	ktOut := flag.String("kernel-trace", "", "write kernel scheduler and bus events as JSONL to this file")
	coverOut := flag.String("cover", "", "write the guest coverage report (blocks/edges, annotated disassembly) to this file ('-' for stderr)")
	snapOut := flag.String("cover-snapshot", "", "write the run's serializable coverage snapshot (vp-diff input) to this file")
	lcovOut := flag.String("lcov", "", "write guest line coverage in lcov .info format to this file")
	heatOut := flag.String("heatmap", "", "write the taint heatmap report (requires a policy) to this file ('-' for stderr)")
	auditOut := flag.String("policy-audit", "", "write the policy-audit report (requires a policy) to this file ('-' for stderr)")
	auditJSONOut := flag.String("policy-audit-json", "", "write the policy-audit counters as JSON to this file")
	sampleEvery := flag.Duration("sample-every", 0, "simulated-time metrics sampling period (e.g. 1ms; 0 disables telemetry)")
	timeseriesOut := flag.String("timeseries", "", "write the sampled metrics timeseries as JSONL to this file (.csv extension selects CSV)")
	forensicsDir := flag.String("forensics", "", "write the flight-recorder forensic bundle (JSON + report) into this directory on violation, fault, or horizon expiry")
	noFlight := flag.Bool("no-flight", false, "disable the always-on flight recorder")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vp-run [flags] file.s")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	img, err := guest.Program(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var pol *core.Policy
	switch *policyName {
	case "none":
	case "conf":
		l := core.IFP1()
		lc, hc := l.MustTag(core.ClassLC), l.MustTag(core.ClassHC)
		pol = core.NewPolicy(l, lc).WithOutput("uart0.tx", lc)
		for _, spec := range splitNonEmpty(*secret) {
			name, length := spec, uint32(4)
			if i := strings.IndexByte(spec, ':'); i >= 0 {
				name = spec[:i]
				fmt.Sscanf(spec[i+1:], "%d", &length)
			}
			addr, ok := img.Symbol(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown symbol %q\n", name)
				os.Exit(2)
			}
			pol.WithRegion(core.RegionRule{
				Name: name, Start: addr, End: addr + length,
				Classify: true, Class: hc,
			})
		}
	case "integrity":
		l := core.IFP2()
		hi, li := l.MustTag(core.ClassHI), l.MustTag(core.ClassLI)
		pol = core.NewPolicy(l, li).
			WithFetchClearance(hi).
			WithRegion(core.RegionRule{
				Name: "image", Start: img.Base, End: img.End(),
				Classify: true, Class: hi,
			}).
			WithInput("uart0.rx", li)
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policyName)
		os.Exit(2)
	}

	var observer *obs.Observer
	if *why || *metricsOut != "" || *eventsOut != "" || *chromeOut != "" {
		observer = obs.New()
	}
	// Simulation-side tracing: -chrome implies kernel tracing so the merged
	// timeline carries scheduler and bus rows next to the taint events.
	var tr *trace.Trace
	needKernel := *ktOut != "" || *chromeOut != ""
	if needKernel || *vcdOut != "" || *profileOut != "" || *foldedOut != "" {
		tr = &trace.Trace{}
		if needKernel {
			tr.Kernel = trace.NewKernelTrace(0)
		}
		if *vcdOut != "" {
			tr.VCD = trace.NewVCD()
		}
		if *profileOut != "" || *foldedOut != "" {
			tr.Prof = trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
		}
	}
	// Coverage views are built on demand; the taint heatmap and policy audit
	// only make sense on the DIFT platform.
	var cov *cover.Cover
	if *coverOut != "" || *lcovOut != "" || *heatOut != "" || *auditOut != "" || *auditJSONOut != "" {
		cov = &cover.Cover{}
		if *coverOut != "" || *lcovOut != "" {
			cov.Guest = cover.NewGuest()
		}
		if pol == nil && (*heatOut != "" || *auditOut != "" || *auditJSONOut != "") {
			fmt.Fprintln(os.Stderr, "-heatmap/-policy-audit need a policy (see -policy)")
			os.Exit(2)
		}
		if *heatOut != "" {
			cov.Taint = cover.NewTaint()
		}
		if *auditOut != "" || *auditJSONOut != "" {
			cov.Audit = cover.NewAudit()
		}
	}
	// The snapshot wants every view the platform supports: the guest edges
	// always, the taint heatmap and policy audit when a policy is loaded.
	if *snapOut != "" {
		if cov == nil {
			cov = &cover.Cover{}
		}
		if cov.Guest == nil {
			cov.Guest = cover.NewGuest()
		}
		if pol != nil {
			if cov.Taint == nil {
				cov.Taint = cover.NewTaint()
			}
			if cov.Audit == nil {
				cov.Audit = cover.NewAudit()
			}
		}
	}
	// Live telemetry: -timeseries without an explicit cadence samples at the
	// 1 ms default.
	var smp *telemetry.Sampler
	if *sampleEvery > 0 || *timeseriesOut != "" {
		smp = telemetry.NewSampler(telemetry.Options{
			Every: kernel.Time((*sampleEvery).Nanoseconds()),
		})
	}
	// -trace subscribes to the flight recorder's stream: it disassembles the
	// first N retired instructions, plus the instruction that stopped the
	// run (a terminal violation or fault record naming one).
	var fr *flight.Recorder
	if *disasN > 0 {
		fr = flight.New(0)
		remaining := *disasN
		fr.Subscribe(func(recs []flight.Rec) {
			for i := range recs {
				r := &recs[i]
				switch {
				case remaining == 0:
					return
				case r.Kind == flight.KindRetire:
				case (r.Kind == flight.KindViolation || r.Kind == flight.KindFault) && r.Insn != 0:
				default:
					continue
				}
				remaining--
				loc := ""
				if name, off, ok := img.SymbolAt(r.PC); ok {
					loc = fmt.Sprintf(" <%s+0x%x>", name, off)
				}
				fmt.Fprintf(os.Stderr, "%08x:  %08x  %-32s%s\n", r.PC, r.Insn, rv32.Disassemble(r.Insn, r.PC), loc)
			}
		})
	}
	pl, err := soc.New(soc.Config{Policy: pol, Obs: observer, Trace: tr, Cover: cov, Telemetry: smp, Flight: fr, FlightOff: *noFlight})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Load maps the RAM it sized to the guest, so the map is complete only
	// now.
	if *mapFlag {
		fmt.Fprintln(os.Stderr, "memory map:")
		for _, r := range pl.Bus.Ranges() {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
	}
	for _, spec := range splitNonEmpty(*watch) {
		name, probe := spec, spec
		if i := strings.IndexByte(spec, ':'); i >= 0 {
			name, probe = spec[:i], spec[i+1:]
		}
		addr, ok := img.Symbol(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown symbol %q\n", name)
			os.Exit(2)
		}
		if err := pl.AddMemProbe(probe, addr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if pl.IsDIFT() {
			if err := pl.AddTagProbe(probe+"_tag", addr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
	}
	if *stdin != "" {
		pl.UART.Inject([]byte(*stdin))
	}

	runErr := pl.Run(kernel.Time(*horizonMS) * kernel.MS)
	os.Stdout.Write(pl.UART.Output())

	if *taintMap && pl.IsDIFT() {
		writeTaintMap(os.Stderr, pl)
	}

	writeExports(pl, observer, *metricsOut, *eventsOut, *chromeOut)
	writeTraceExports(pl, tr, *vcdOut, *profileOut, *foldedOut, *ktOut)
	writeCoverExports(cov, img, flag.Arg(0), *coverOut, *lcovOut, *heatOut, *auditOut, *auditJSONOut)
	if *snapOut != "" {
		name := strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".s")
		snap := pl.CoverSnapshot(name, *policyName)
		exportTo(*snapOut, func(f *os.File) error {
			_, err := f.Write(snap.JSON())
			return err
		})
	}
	if smp != nil {
		exportTo(*timeseriesOut, func(f *os.File) error {
			if strings.HasSuffix(*timeseriesOut, ".csv") {
				return smp.WriteCSV(f)
			}
			return smp.WriteJSONL(f)
		})
	}
	if *forensicsDir != "" {
		b := pl.LastForensics()
		if b == nil {
			// No terminal violation or fault: a run that never exited ended
			// on the horizon, worth a snapshot of where the guest got stuck.
			if exited, _ := pl.Exited(); !exited {
				b = pl.Snapshot("horizon")
			}
		}
		name := strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".s")
		writeForensics(*forensicsDir, name, b)
	}

	var (
		v  *core.Violation
		pe *kernel.PanicError
	)
	switch {
	case errors.As(runErr, &v):
		fmt.Fprintf(os.Stderr, "\nSECURITY VIOLATION: %v\n", v)
		if *why {
			annotate := func(ev core.TaintEvent) string {
				if ev.PC == 0 || ev.Insn == 0 {
					return ""
				}
				s := rv32.Disassemble(ev.Insn, ev.PC)
				if name, off, ok := img.SymbolAt(ev.PC); ok {
					s += fmt.Sprintf(" <%s+0x%x>", name, off)
				}
				return s
			}
			fmt.Fprintf(os.Stderr, "provenance (classification -> failed check):\n%s",
				v.ProvenanceReport(annotate))
		}
		os.Exit(3)
	case errors.As(runErr, &pe):
		// A bug in the simulator, not in the guest: the stack is what a
		// bug report needs.
		fmt.Fprintf(os.Stderr, "\nerror: %v\n\n%s", pe, pe.Stack)
		os.Exit(1)
	case runErr != nil:
		fmt.Fprintf(os.Stderr, "\nerror: %v\n", runErr)
		os.Exit(1)
	}
	exited, code := pl.Exited()
	fmt.Fprintf(os.Stderr, "\n[exited=%v code=%d instret=%d simtime=%v]\n",
		exited, code, pl.Instret(), pl.Sim.Now())
	if exited {
		os.Exit(int(code) & 0x7f)
	}
}

// writeForensics exports a forensic bundle as <dir>/<name>.forensics.json
// plus the human-readable report alongside. A nil bundle (clean exit, or the
// recorder disabled) writes nothing.
func writeForensics(dir, name string, b *flight.Bundle) {
	if b == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	jsonPath := filepath.Join(dir, name+".forensics.json")
	if err := os.WriteFile(jsonPath, b.JSON(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	exportTo(filepath.Join(dir, name+".forensics.txt"), func(f *os.File) error {
		return b.WriteReport(f)
	})
	fmt.Fprintf(os.Stderr, "forensics: %s (%s)\n", jsonPath, b.Reason)
}

// openOut opens an export destination; "-" means stderr.
func openOut(path string) (*os.File, bool) {
	if path == "-" {
		return os.Stderr, false
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f, true
}

// exportTo writes one export through fn, reporting errors without aborting
// the remaining exports.
func exportTo(path string, fn func(*os.File) error) {
	if path == "" {
		return
	}
	f, closeit := openOut(path)
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if closeit {
		f.Close()
	}
}

// writeTaintMap prints the per-class RAM census, classes in name order, and
// the first tainted ranges in address order.
func writeTaintMap(w io.Writer, pl *soc.Platform) {
	fmt.Fprintln(w, "\ntaint census (RAM bytes per class):")
	census := pl.TaintSummary()
	for _, class := range slices.Sorted(maps.Keys(census)) {
		fmt.Fprintf(w, "  %-12s %d\n", class, census[class])
	}
	ranges := pl.TaintedRanges()
	fmt.Fprintf(w, "tainted ranges (%d):\n", len(ranges))
	const maxShown = 32
	for i, r := range ranges {
		if i == maxShown {
			fmt.Fprintf(w, "  ... and %d more\n", len(ranges)-maxShown)
			break
		}
		fmt.Fprintln(w, "  "+r)
	}
}

// writeExports dumps the observer's metrics and event stream in the formats
// requested on the command line. The Chrome export merges the kernel/bus
// records when kernel tracing is active.
func writeExports(pl *soc.Platform, o *obs.Observer, metricsOut, eventsOut, chromeOut string) {
	if o == nil {
		return
	}
	exportTo(metricsOut, func(f *os.File) error {
		return obs.WriteMetricsJSON(f, pl.MetricsSnapshot())
	})
	exportTo(eventsOut, func(f *os.File) error { return o.WriteJSONL(f) })
	exportTo(chromeOut, func(f *os.File) error {
		var kt *trace.KernelTrace
		if t := pl.Trace(); t != nil {
			kt = t.Kernel
		}
		return trace.WriteChromeTrace(f, kt, o)
	})
}

// writeTraceExports dumps the simulation-side trace views: waveform, profile
// top table, folded stacks, and the kernel event stream.
func writeTraceExports(pl *soc.Platform, tr *trace.Trace, vcdOut, profileOut, foldedOut, ktOut string) {
	if tr == nil {
		return
	}
	if tr.VCD != nil {
		// Capture the final state so the waveform extends to the end of the
		// run.
		tr.VCD.Sample(uint64(pl.Sim.Now()))
	}
	exportTo(vcdOut, func(f *os.File) error { return tr.VCD.Dump(f) })
	exportTo(profileOut, func(f *os.File) error { return tr.Prof.WriteTop(f, 30) })
	exportTo(foldedOut, func(f *os.File) error { return tr.Prof.WriteFolded(f) })
	exportTo(ktOut, func(f *os.File) error { return tr.Kernel.WriteJSONL(f) })
}

// writeCoverExports dumps the coverage views: guest coverage report, lcov
// line coverage, taint heatmap, and the policy audit (text and JSON).
func writeCoverExports(cov *cover.Cover, img *asm.Image, srcName, coverOut, lcovOut, heatOut, auditOut, auditJSONOut string) {
	if cov == nil {
		return
	}
	if g := cov.Guest; g != nil {
		exportTo(coverOut, func(f *os.File) error { return g.WriteReport(f, rv32.Disassemble) })
		exportTo(lcovOut, func(f *os.File) error { return g.WriteLcov(f, srcName) })
	}
	if t := cov.Taint; t != nil {
		symAt := func(addr uint32) string {
			if name, off, ok := img.SymbolAt(addr); ok {
				return fmt.Sprintf("%s+0x%x", name, off)
			}
			return ""
		}
		exportTo(heatOut, func(f *os.File) error { return t.WriteHeat(f, symAt) })
	}
	if a := cov.Audit; a != nil && a.Configured() {
		exportTo(auditOut, func(f *os.File) error { return a.WriteReport(f) })
		exportTo(auditJSONOut, func(f *os.File) error { return a.WriteJSON(f) })
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
