// Command immo walks through the paper's Section VI-A case study: the
// development and validation of the security policy for a car engine
// immobilizer ECU, reproducing each finding in order:
//
//  1. legitimate challenge/response authentication (declassification at
//     the AES engine lets the response leave on the CAN bus);
//  2. the UART debug memory dump leaks the PIN — found by the base policy;
//  3. the fixed firmware's dump passes;
//  4. the three attack-scenario families are detected;
//  5. the HI-overwrite entropy attack slips past the base policy and the
//     PIN byte is brute-forced from one observed exchange;
//  6. the per-byte-class policy detects the entropy attack.
package main

// The trace flags (-vcd, -profile, -folded, -chrome, -kernel-trace) attach
// the simulation-side observability layer to the step-1 authentication run
// and export its waveform, hot-path profile, and merged event timeline. The
// coverage flags (-cover, -heatmap, -policy-audit, -policy-audit-json)
// likewise attach the coverage subsystem to that run; the policy-audit
// report shows which rules of the base policy a single authentication
// exercise — and which stay dead until the later attack steps.
import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

var (
	vcdOut     = flag.String("vcd", "", "write a GTKWave-compatible waveform of the authentication run to this file")
	profileOut = flag.String("profile", "", "write the firmware hot-path profile top table to this file ('-' for stderr)")
	foldedOut  = flag.String("folded", "", "write folded call stacks (flamegraph input) to this file")
	chromeOut  = flag.String("chrome", "", "write taint, kernel and bus events as one merged Chrome trace to this file")
	ktOut      = flag.String("kernel-trace", "", "write kernel scheduler and bus events as JSONL to this file")

	coverOut     = flag.String("cover", "", "write the firmware coverage report of the authentication run to this file ('-' for stderr)")
	heatOut      = flag.String("heatmap", "", "write the taint heatmap of the authentication run to this file ('-' for stderr)")
	auditOut     = flag.String("policy-audit", "", "write the policy-audit report of the authentication run to this file ('-' for stderr)")
	auditJSONOut = flag.String("policy-audit-json", "", "write the policy-audit counters of the authentication run as JSON to this file")

	sampleEvery   = flag.Duration("sample-every", 0, "simulated-time metrics sampling period for the authentication run (e.g. 1ms; 0 disables telemetry)")
	timeseriesOut = flag.String("timeseries", "", "write the sampled metrics timeseries of the authentication run as JSONL to this file (.csv extension selects CSV)")

	forensicsDir = flag.String("forensics", "", "write each detected violation's flight-recorder bundle (JSON + report) into this directory")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// traceSetup builds the observer and trace bundle the command-line flags ask
// for (both nil when no flag is set).
func traceSetup() (*obs.Observer, *trace.Trace) {
	var o *obs.Observer
	if *chromeOut != "" {
		o = obs.New()
	}
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
	return o, tr
}

// coverSetup builds the coverage views the command-line flags ask for (nil
// when none are set).
func coverSetup() *cover.Cover {
	if *coverOut == "" && *heatOut == "" && *auditOut == "" && *auditJSONOut == "" {
		return nil
	}
	cov := &cover.Cover{}
	if *coverOut != "" {
		cov.Guest = cover.NewGuest()
	}
	if *heatOut != "" {
		cov.Taint = cover.NewTaint()
	}
	if *auditOut != "" || *auditJSONOut != "" {
		cov.Audit = cover.NewAudit()
	}
	return cov
}

// writeCoverExports dumps the requested coverage views of the traced run.
func writeCoverExports(e *immo.ECU, cov *cover.Cover) {
	if cov == nil {
		return
	}
	if g := cov.Guest; g != nil {
		exportTo(*coverOut, func(f *os.File) error { return g.WriteReport(f, rv32.Disassemble) })
	}
	if t := cov.Taint; t != nil {
		symAt := func(addr uint32) string {
			if name, off, ok := e.Image.SymbolAt(addr); ok {
				return fmt.Sprintf("%s+0x%x", name, off)
			}
			return ""
		}
		exportTo(*heatOut, func(f *os.File) error { return t.WriteHeat(f, symAt) })
	}
	if a := cov.Audit; a != nil && a.Configured() {
		exportTo(*auditOut, func(f *os.File) error { return a.WriteReport(f) })
		exportTo(*auditJSONOut, func(f *os.File) error { return a.WriteJSON(f) })
	}
}

// telemetrySetup builds the metrics sampler the command-line flags ask for
// (nil when telemetry is off). -timeseries without an explicit cadence
// samples at the 1 ms default.
func telemetrySetup() *telemetry.Sampler {
	if *sampleEvery <= 0 && *timeseriesOut == "" {
		return nil
	}
	return telemetry.NewSampler(telemetry.Options{
		Every: kernel.Time((*sampleEvery).Nanoseconds()),
	})
}

// writeTelemetryExports dumps the sampled timeseries of the traced run.
func writeTelemetryExports(smp *telemetry.Sampler) {
	if smp == nil {
		return
	}
	exportTo(*timeseriesOut, func(f *os.File) error {
		if strings.HasSuffix(*timeseriesOut, ".csv") {
			return smp.WriteCSV(f)
		}
		return smp.WriteJSONL(f)
	})
}

// exportTo writes one export, reporting errors without aborting the rest.
func exportTo(path string, fn func(*os.File) error) {
	if path == "" {
		return
	}
	f := os.Stderr
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
	}
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// writeTraceExports dumps the requested views of the traced run.
func writeTraceExports(e *immo.ECU, o *obs.Observer, tr *trace.Trace) {
	if tr == nil && o == nil {
		return
	}
	if tr != nil && tr.VCD != nil {
		tr.VCD.Sample(uint64(e.Platform.Sim.Now()))
	}
	if tr != nil {
		exportTo(*vcdOut, func(f *os.File) error { return tr.VCD.Dump(f) })
		exportTo(*profileOut, func(f *os.File) error { return tr.Prof.WriteTop(f, 30) })
		exportTo(*foldedOut, func(f *os.File) error { return tr.Prof.WriteFolded(f) })
		exportTo(*ktOut, func(f *os.File) error { return tr.Kernel.WriteJSONL(f) })
	}
	exportTo(*chromeOut, func(f *os.File) error {
		var kt *trace.KernelTrace
		if tr != nil {
			kt = tr.Kernel
		}
		return trace.WriteChromeTrace(f, kt, o)
	})
}

// exportForensics writes the ECU platform's last forensic bundle (JSON +
// human report) under -forensics, named after the case-study step that
// produced the violation. No-op without the flag or without a bundle.
func exportForensics(name string, e *immo.ECU) {
	if *forensicsDir == "" {
		return
	}
	b := e.Platform.LastForensics()
	if b == nil {
		return
	}
	if err := os.MkdirAll(*forensicsDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	path := filepath.Join(*forensicsDir, name+".forensics.json")
	if err := os.WriteFile(path, b.JSON(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	exportTo(filepath.Join(*forensicsDir, name+".forensics.txt"), func(f *os.File) error {
		return b.WriteReport(f)
	})
	fmt.Printf("    forensics: %s\n", path)
}

func step(n int, what string) {
	fmt.Printf("\n[%d] %s\n", n, what)
}

func expectViolation(err error, kind core.ViolationKind) error {
	var v *core.Violation
	if !errors.As(err, &v) {
		return fmt.Errorf("expected a %v violation, got: %v", kind, err)
	}
	if v.Kind != kind {
		return fmt.Errorf("expected kind %v, got %v", kind, v)
	}
	fmt.Printf("    DETECTED: %v\n", v)
	return nil
}

func run() error {
	challenge := [8]byte{0xCA, 0xFE, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}

	step(1, "challenge/response authentication under the base policy")
	observer, tr := traceSetup()
	cov := coverSetup()
	smp := telemetrySetup()
	e, err := immo.NewECUWithConfig(immo.VariantFixed, immo.PolicyBase,
		immo.ECUConfig{Obs: observer, Trace: tr, Cover: cov, Telemetry: smp})
	if err != nil {
		return err
	}
	resp, err := e.Authenticate(challenge)
	if err != nil {
		return err
	}
	fmt.Printf("    challenge % x -> response % x\n", challenge, resp)
	if resp != immo.Expected(challenge) {
		return fmt.Errorf("response mismatch")
	}
	fmt.Println("    engine ECU verifies the response: OK (AES declassification at work)")
	if smp != nil {
		// A single authentication finishes within a couple of samples; let
		// the firmware idle for a stretch so the exported timeseries also
		// shows the quiet tail a dashboard would render.
		if err := e.Idle(10 * kernel.MS); err != nil {
			return err
		}
	}
	writeTraceExports(e, observer, tr)
	writeCoverExports(e, cov)
	writeTelemetryExports(smp)
	e.Close()

	step(2, "debug memory dump on the original firmware (the vulnerability)")
	e, err = immo.NewECU(immo.VariantVulnerable, immo.PolicyBase)
	if err != nil {
		return err
	}
	_, dumpErr := e.DebugDump()
	if err := expectViolation(dumpErr, core.KindOutputClearance); err != nil {
		return err
	}
	exportForensics("immo-debug-dump", e)
	e.Close()

	step(3, "debug memory dump on the fixed firmware")
	e, err = immo.NewECU(immo.VariantFixed, immo.PolicyBase)
	if err != nil {
		return err
	}
	dump, err := e.DebugDump()
	if err != nil {
		return err
	}
	if immo.ContainsPIN(dump) {
		return fmt.Errorf("fixed dump still contains the PIN")
	}
	fmt.Printf("    dump of %d bytes, PIN not present: OK\n", len(dump))
	e.Close()

	step(4, "attack scenarios against the base policy")
	for _, sc := range []struct {
		cmd     byte
		payload []byte
		what    string
		kind    core.ViolationKind
	}{
		{'a', nil, "write the PIN directly to an output interface", core.KindOutputClearance},
		{'b', nil, "leak the PIN through an intermediate buffer to the CAN bus", core.KindOutputClearance},
		{'f', nil, "leak the PIN through a buffer-overflow read of the serial string", core.KindOutputClearance},
		{'c', nil, "control flow depending on the PIN", core.KindBranchClearance},
		{'o', []byte{0x42}, "override the PIN with external data", core.KindStoreClearance},
	} {
		e, err = immo.NewECU(immo.VariantFixed, immo.PolicyBase)
		if err != nil {
			return err
		}
		fmt.Printf("    scenario: %s\n", sc.what)
		if err := expectViolation(e.Command(sc.cmd, sc.payload...), sc.kind); err != nil {
			return err
		}
		exportForensics("immo-scenario-"+string(sc.cmd), e)
		e.Close()
	}

	step(5, "the HI-overwrite entropy attack against the base policy")
	e, err = immo.NewECU(immo.VariantFixed, immo.PolicyBase)
	if err != nil {
		return err
	}
	if err := e.Command('e'); err != nil {
		return fmt.Errorf("entropy attack unexpectedly detected: %v", err)
	}
	fmt.Println("    NOT detected: PIN bytes 1..3 overwritten with byte 0 (HI -> HI is allowed)")
	resp, err = e.Authenticate(challenge)
	if err != nil {
		return err
	}
	b, ok := immo.BruteForcePIN0(challenge, resp)
	if !ok {
		return fmt.Errorf("brute force failed")
	}
	fmt.Printf("    key entropy collapsed to 8 bits; brute force recovers PIN[0] = 0x%02x\n", b)
	e.Close()

	step(6, "the same attack against the per-byte-class policy (the fix)")
	e, err = immo.NewECU(immo.VariantFixed, immo.PolicyPerByte)
	if err != nil {
		return err
	}
	if err := expectViolation(e.Command('e'), core.KindStoreClearance); err != nil {
		return err
	}
	exportForensics("immo-entropy-perbyte", e)
	e.Close()

	fmt.Println("\ncase study complete: all paper findings reproduced")
	return nil
}
