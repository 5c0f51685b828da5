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
// default (untrusted/public) class. The observation views (-vcd, -cover,
// -timeseries, ...) are the ones internal/cli defines; -forensics writes
// the bundle of a violation, a guest fault, or a run that ended on the
// horizon.
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

	"vpdift/internal/cli"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
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
	watch := flag.String("watch", "", "comma-separated symbol[:probe-name] RAM words added as waveform probes (with -vcd)")
	snapOut := flag.String("cover-snapshot", "", "write the run's serializable coverage snapshot (vp-diff input) to this file")
	lcovOut := flag.String("lcov", "", "write guest line coverage in lcov .info format to this file")
	noFlight := flag.Bool("no-flight", false, "disable the always-on flight recorder")
	views := cli.Register(flag.CommandLine)
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

	cfg := soc.Config{Policy: pol, FlightOff: *noFlight}
	if *why || *metricsOut != "" || *eventsOut != "" {
		cfg.Obs = obs.New()
	}
	if err := views.Attach(&cfg, pol != nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// -lcov reads the guest view; the snapshot wants every view the
	// platform supports: the guest edges always, the taint heatmap and
	// policy audit when a policy is loaded.
	switch {
	case *snapOut != "" && pol != nil:
		cfg.Cover = cover.New()
	case *snapOut != "" || *lcovOut != "":
		if cfg.Cover == nil {
			cfg.Cover = &cover.Cover{}
		}
		if cfg.Cover.Guest == nil {
			cfg.Cover.Guest = cover.NewGuest()
		}
	}
	// -trace subscribes to the flight recorder's stream: it disassembles the
	// first N retired instructions, plus the instruction that stopped the
	// run (a terminal violation or fault record naming one). It cancels
	// after N, so the recorder stops expanding blocks for it.
	if *disasN > 0 {
		cfg.Flight = flight.New(0)
		remaining := *disasN
		var cancel func()
		cancel = cfg.Flight.Subscribe(func(recs []flight.Rec) {
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
				if remaining == 0 {
					cancel()
				}
			}
		})
	}
	pl, err := soc.New(cfg)
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

	name := strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".s")
	cli.Export(*metricsOut, func(w io.Writer) error { return obs.WriteMetricsJSON(w, pl.MetricsSnapshot()) })
	cli.Export(*eventsOut, pl.Observer().WriteJSONL)
	views.Write(pl, img)
	cli.Export(*lcovOut, func(w io.Writer) error { return pl.Cover().Guest.WriteLcov(w, flag.Arg(0)) })
	cli.Export(*snapOut, func(w io.Writer) error { return pl.CoverSnapshot(name, *policyName).WriteJSON(w) })
	if views.Forensics != "" {
		b := pl.LastForensics()
		if b == nil {
			// No terminal violation or fault: a run that never exited ended
			// on the horizon, worth a snapshot of where the guest got stuck.
			if exited, _ := pl.Exited(); !exited {
				b = pl.Snapshot("horizon")
			}
		}
		if path := views.WriteForensics(name, b); path != "" {
			fmt.Fprintf(os.Stderr, "forensics: %s (%s)\n", path, b.Reason)
		}
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

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
