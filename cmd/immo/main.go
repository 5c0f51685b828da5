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

// The view flags (-vcd, -profile, -folded, -chrome, -kernel-trace, -cover,
// -heatmap, -policy-audit, -policy-audit-json, -sample-every, -timeseries;
// see internal/cli) attach to the step-1 authentication run and write its
// waveform, hot-path profile, merged event timeline, coverage, and metrics
// timeseries. The policy-audit report shows which rules of the base policy
// a single authentication exercises — and which stay dead until the later
// attack steps. -forensics writes the bundle of each detected violation.
import (
	"errors"
	"flag"
	"fmt"
	"os"

	"vpdift/internal/cli"
	"vpdift/internal/core"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/soc"
)

var views = cli.Register(flag.CommandLine)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// forensics writes the ECU platform's last forensic bundle under
// -forensics, named after the case-study step that produced the violation.
func forensics(name string, e *immo.ECU) {
	if path := views.WriteForensics(name, e.Platform.LastForensics()); path != "" {
		fmt.Printf("    forensics: %s\n", path)
	}
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
	var cfg soc.Config
	if err := views.Attach(&cfg, true); err != nil { // the base policy tracks tags
		return err
	}
	e, err := immo.NewECUWithConfig(immo.VariantFixed, immo.PolicyBase,
		immo.ECUConfig{Obs: cfg.Obs, Trace: cfg.Trace, Cover: cfg.Cover, Telemetry: cfg.Telemetry})
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
	if cfg.Telemetry != nil {
		// A single authentication finishes within a couple of samples; let
		// the firmware idle for a stretch so the exported timeseries also
		// shows the quiet tail a dashboard would render.
		if err := e.Idle(10 * kernel.MS); err != nil {
			return err
		}
	}
	views.Write(e.Platform, e.Image)
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
	forensics("immo-debug-dump", e)
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
		forensics("immo-scenario-"+string(sc.cmd), e)
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
	forensics("immo-entropy-perbyte", e)
	e.Close()

	fmt.Println("\ncase study complete: all paper findings reproduced")
	return nil
}
