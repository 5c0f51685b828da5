package immo

import (
	"bytes"
	"crypto/aes"
	"fmt"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

// PolicyKind selects the security policy under validation.
type PolicyKind int

// Policy kinds for the case study.
const (
	// PolicyNone runs without DIFT (baseline VP) — used for the Table II
	// immo-fixed performance row.
	PolicyNone PolicyKind = iota
	// PolicyBase is the paper's initial immobilizer policy: IFP-3, PIN
	// classified (HC,HI), (LC,LI) clearance on all I/O, AES declassifies.
	PolicyBase
	// PolicyPerByte is the final fix: each PIN byte has its own integrity
	// class, closing the HI-overwrite entropy attack.
	PolicyPerByte
)

// Key returns the AES-128 key derived from the PIN (repeated four times).
func Key() [16]byte {
	var k [16]byte
	for i := range k {
		k[i] = PIN[i%4]
	}
	return k
}

// Expected computes the reference response to a challenge: the first 8
// bytes of AES-128(Key, challenge || zeros) — exactly what the engine ECU
// computes with its own copy of the PIN.
func Expected(challenge [8]byte) [8]byte {
	return expectedWithKey(Key(), challenge)
}

func expectedWithKey(key [16]byte, challenge [8]byte) [8]byte {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	var pt, ct [16]byte
	copy(pt[:8], challenge[:])
	blk.Encrypt(ct[:], pt[:])
	var out [8]byte
	copy(out[:], ct[:8])
	return out
}

// BasePolicy builds the paper's initial immobilizer policy for the given
// firmware image: IFP-3; PIN classified and store-protected as (HC,HI); all
// input and output devices at (LC,LI); the AES engine admits everything
// (lattice top) and declassifies its ciphertext to (LC,LI); branch and
// memory-address execution clearance at (LC,LI) to catch implicit flows.
func BasePolicy(img *asm.Image) *core.Policy {
	l := core.IFP3()
	lcLI := l.MustTag("(LC,LI)")
	hcHI := l.MustTag("(HC,HI)")
	top, _ := l.Top()
	pin := img.MustSymbol("immo_pin")
	return core.NewPolicy(l, lcLI).
		WithRegion(core.RegionRule{
			Name: "pin", Start: pin, End: pin + 4,
			Classify: true, Class: hcHI,
			CheckStore: true, Clearance: hcHI,
		}).
		WithOutput("uart0.tx", lcLI).
		WithOutput("can0.tx", lcLI).
		WithOutput("aes0.in", top).
		WithInput("uart0.rx", lcLI).
		WithInput("can0.rx", lcLI).
		WithInput("aes0.out", lcLI).
		WithBranchClearance(lcLI).
		WithMemAddrClearance(lcLI)
}

// PerBytePolicy builds the final policy: the confidentiality lattice
// crossed with per-key-byte integrity classes, each PIN byte classified and
// store-protected with its own class.
func PerBytePolicy(img *asm.Image) (*core.Policy, error) {
	integ, err := core.PerByteKeyIntegrity(4)
	if err != nil {
		return nil, err
	}
	l, err := core.Product(core.IFP1(), integ)
	if err != nil {
		return nil, err
	}
	lcLI := l.MustTag("(LC,LI)")
	top, ok := l.Top()
	if !ok {
		return nil, fmt.Errorf("immo: per-byte lattice has no top")
	}
	pin := img.MustSymbol("immo_pin")
	p := core.NewPolicy(l, lcLI).
		WithOutput("uart0.tx", lcLI).
		WithOutput("can0.tx", lcLI).
		WithOutput("aes0.in", top).
		WithInput("uart0.rx", lcLI).
		WithInput("can0.rx", lcLI).
		WithInput("aes0.out", lcLI).
		WithBranchClearance(lcLI).
		WithMemAddrClearance(lcLI)
	for i := uint32(0); i < 4; i++ {
		k := l.MustTag(fmt.Sprintf("(HC,K%d)", i))
		p.WithRegion(core.RegionRule{
			Name: fmt.Sprintf("pin%d", i), Start: pin + i, End: pin + i + 1,
			Classify: true, Class: k,
			CheckStore: true, Clearance: k,
		})
	}
	return p, nil
}

// ECU drives an immobilizer platform from the engine's (host) side.
type ECU struct {
	Platform *soc.Platform
	Image    *asm.Image
}

// NewECU builds the immobilizer with the chosen firmware variant and
// policy.
func NewECU(v Variant, kind PolicyKind) (*ECU, error) {
	return NewECUWithConfig(v, kind, ECUConfig{})
}

// ECUConfig collects every optional attachment for an ECU platform; any
// field may be nil. The policy-audit view of Cover makes the ECU the
// paper's policy-validation workbench: after a run, Cover.Audit reports
// which rules of the immobilizer policy were never exercised. Telemetry
// ticks on simulated time, so its timeseries is deterministic for a given
// challenge schedule.
type ECUConfig struct {
	Obs       *obs.Observer
	Trace     *trace.Trace
	Cover     *cover.Cover
	Telemetry *telemetry.Sampler
	// FlightOff disables the always-on flight recorder (the forensic parity
	// suite proves the verdicts are identical with it on or off).
	FlightOff bool
}

// NewECUWithConfig builds the immobilizer with the chosen firmware variant,
// policy, and platform attachments.
func NewECUWithConfig(v Variant, kind PolicyKind, cfg ECUConfig) (*ECU, error) {
	img := Firmware(v)
	var pol *core.Policy
	switch kind {
	case PolicyNone:
	case PolicyBase:
		pol = BasePolicy(img)
	case PolicyPerByte:
		var err error
		pol, err = PerBytePolicy(img)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("immo: unknown policy kind %d", kind)
	}
	pl, err := soc.New(soc.Config{
		Policy: pol, Obs: cfg.Obs, Trace: cfg.Trace, Cover: cfg.Cover,
		Telemetry: cfg.Telemetry, FlightOff: cfg.FlightOff,
	})
	if err != nil {
		return nil, err
	}
	if err := pl.Load(img); err != nil {
		pl.Shutdown()
		return nil, err
	}
	return &ECU{Platform: pl, Image: img}, nil
}

// Close releases the platform.
func (e *ECU) Close() { e.Platform.Shutdown() }

// step advances the simulation by d. Policy violations surface as the
// returned error.
func (e *ECU) step(d kernel.Time) error {
	return e.Platform.Run(e.Platform.Sim.Now() + d)
}

// Idle advances the simulation by d with no stimulus — the firmware polls
// quietly. Useful for letting an attached telemetry sampler capture the
// platform's idle shape.
func (e *ECU) Idle(d kernel.Time) error { return e.step(d) }

// stepUntil advances in 1 ms slices until cond holds or the budget runs
// out; it reports whether cond held.
func (e *ECU) stepUntil(budget kernel.Time, cond func() bool) (bool, error) {
	deadline := e.Platform.Sim.Now() + budget
	for e.Platform.Sim.Now() < deadline {
		if cond() {
			return true, nil
		}
		if err := e.step(kernel.MS); err != nil {
			return false, err
		}
		if exited, _ := e.Platform.Exited(); exited {
			return cond(), nil
		}
	}
	return cond(), nil
}

// Authenticate performs one challenge-response round: the engine sends the
// challenge on CAN ID 0x100 and waits for the 8-byte response on ID 0x101.
func (e *ECU) Authenticate(challenge [8]byte) ([8]byte, error) {
	var resp [8]byte
	before := len(e.Platform.CAN.TxLog)
	e.Platform.CAN.Deliver(0x100, challenge[:])
	ok, err := e.stepUntil(kernel.S, func() bool {
		return len(e.Platform.CAN.TxLog) > before
	})
	if err != nil {
		return resp, err
	}
	if !ok {
		return resp, fmt.Errorf("immo: no response within budget")
	}
	f := e.Platform.CAN.TxLog[before]
	if f.ID != 0x101 || len(f.Data) != 8 {
		return resp, fmt.Errorf("immo: unexpected response frame id=0x%x len=%d", f.ID, len(f.Data))
	}
	copy(resp[:], core.Values(f.Data))
	return resp, nil
}

// Command sends a debug command byte (plus optional payload) on the UART
// and advances the simulation, returning any policy violation.
func (e *ECU) Command(cmd byte, payload ...byte) error {
	e.Platform.UART.Inject(append([]byte{cmd}, payload...))
	return e.step(50 * kernel.MS)
}

// DebugDump issues the 'd' command and returns the console bytes it
// produced.
func (e *ECU) DebugDump() ([]byte, error) {
	e.Platform.UART.ClearOutput()
	err := e.Command('d')
	return e.Platform.UART.Output(), err
}

// BruteForcePIN0 mounts the paper's post-entropy-attack brute force: after
// PIN[1..3] have been overwritten with PIN[0], the key has 8 bits of
// entropy, so 256 trial encryptions of the observed challenge/response pair
// recover PIN[0].
func BruteForcePIN0(challenge, response [8]byte) (byte, bool) {
	for b := 0; b < 256; b++ {
		var key [16]byte
		for i := range key {
			key[i] = byte(b)
		}
		if expectedWithKey(key, challenge) == response {
			return byte(b), true
		}
	}
	return 0, false
}

// ContainsPIN reports whether the byte sequence contains the secret PIN.
func ContainsPIN(data []byte) bool {
	return bytes.Contains(data, PIN[:])
}
