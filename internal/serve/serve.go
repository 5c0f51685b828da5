// Package serve wires the repo's workload zoo into the telemetry server's
// session factory: it turns wire-level session specs (workload name, scale,
// policy, stimulus) into loaded soc platforms with drive closures, and
// content-hashes the resolved (image, policy, stimulus) triple into the
// dedup key the result store is indexed by. It exists as its own package so
// telemetry stays free of soc/perf/immo/wk imports (which would cycle
// through soc's sampler dependency).
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vpdift/internal/asm"
	"vpdift/internal/core"
	"vpdift/internal/cover"
	"vpdift/internal/guest"
	"vpdift/internal/immo"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/perf"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/wk"
)

// DefaultChallengeEvery is the immobilizer challenge period when the
// factory's ChallengeEvery is zero.
const DefaultChallengeEvery = 5 * kernel.MS

// DefaultMicroPrimes sizes the "micro" load-test guest: small enough that a
// session costs well under a millisecond of host time, large enough that the
// run loop takes more than one Step chunk.
const DefaultMicroPrimes = 200

// Factory implements telemetry.SessionFactory over every workload the repo
// ships: the immobilizer challenge loop, the Table II benchmark rows, the
// Wilander–Kamkar attack suite, and a tiny "micro" guest for load testing.
type Factory struct {
	// ChallengeEvery is the simulated-time period between immobilizer
	// challenges for the "immo" workload. Defaults to DefaultChallengeEvery.
	ChallengeEvery kernel.Time

	// images memoizes assembled guests by workload|scale: a session's Key and
	// Build each resolve the spec, and assembling the same benchmark afresh
	// for every submission dominates session cost under load. Images are
	// read-only after assembly (Load copies them into RAM), so sharing one
	// across sessions is safe; policies are still built fresh per session.
	imgMu  sync.Mutex
	images map[string]*asm.Image
}

// NewFactory returns a Factory with default tuning.
func NewFactory() *Factory { return &Factory{} }

var _ telemetry.SessionFactory = (*Factory)(nil)

// resolved is the factory's intermediate form: everything the key needs
// (image bytes, policy name, horizon) plus what Build needs on top (the
// policy object and the drive constructor, bound to a platform later).
type resolved struct {
	img     *asm.Image
	policy  *core.Policy
	polName string
	horizon kernel.Time
	drive   func(pl *soc.Platform) func() error
}

func (f *Factory) challengeEvery() kernel.Time {
	if f.ChallengeEvery > 0 {
		return f.ChallengeEvery
	}
	return DefaultChallengeEvery
}

// cachedImage returns the memoized image for a cache key, assembling it with
// build on the first request.
func (f *Factory) cachedImage(key string, build func() (*asm.Image, error)) (*asm.Image, error) {
	f.imgMu.Lock()
	defer f.imgMu.Unlock()
	if img, ok := f.images[key]; ok {
		return img, nil
	}
	img, err := build()
	if err != nil {
		return nil, err
	}
	if f.images == nil {
		f.images = make(map[string]*asm.Image)
	}
	f.images[key] = img
	return img, nil
}

// Names lists every workload name the factory accepts, for error messages
// and documentation. Table II names are reported at the small scale (the
// set is scale-independent).
func Names() []string {
	names := []string{"immo", "micro"}
	for _, w := range perf.Workloads(perf.ScaleSmall) {
		if w.Drive != nil {
			continue // interactive rows are served as "immo"
		}
		names = append(names, w.Name)
	}
	for _, a := range wk.Suite() {
		if a.Applicable() {
			names = append(names, fmt.Sprintf("wk-%d", a.Num))
		}
	}
	sort.Strings(names[2:])
	return names
}

// resolve turns a spec into its image, policy and drive constructor. It is
// the shared front half of Key and Build.
func (f *Factory) resolve(spec telemetry.SessionSpec) (resolved, error) {
	horizon := kernel.Time(0)
	if spec.HorizonMs > 0 {
		horizon = kernel.Time(spec.HorizonMs) * kernel.MS
	}
	switch {
	case spec.Workload == "immo":
		return f.resolveImmo(spec, horizon)
	case spec.Workload == "micro":
		return f.resolveMicro(spec, horizon)
	case strings.HasPrefix(spec.Workload, "wk-"):
		return f.resolveAttack(spec, horizon)
	default:
		return f.resolvePerf(spec, horizon)
	}
}

func (f *Factory) resolveImmo(spec telemetry.SessionSpec, horizon kernel.Time) (resolved, error) {
	img, err := f.cachedImage("immo", func() (*asm.Image, error) {
		return immo.Firmware(immo.VariantFixed), nil
	})
	if err != nil {
		return resolved{}, err
	}
	r := resolved{img: img, horizon: horizon}
	switch spec.Policy {
	case "", "default", "base":
		r.policy, r.polName = immo.BasePolicy(img), "base"
	case "per-byte":
		p, err := immo.PerBytePolicy(img)
		if err != nil {
			return resolved{}, err
		}
		r.policy, r.polName = p, "per-byte"
	case "none":
		r.polName = "none"
	default:
		return resolved{}, fmt.Errorf("serve: immo policy must be default, base, per-byte or none, not %q", spec.Policy)
	}
	every := f.challengeEvery()
	seed := seedByte(spec.Stimulus)
	r.drive = func(pl *soc.Platform) func() error {
		round, next := seed, kernel.Time(0)
		return func() error {
			if now := pl.Sim.Now(); now >= next {
				challenge := [8]byte{round, 2, 3, 4, 5, 6, 7, 8}
				pl.CAN.Deliver(0x100, challenge[:])
				round++
				next = now + every
			}
			return nil
		}
	}
	return r, nil
}

func (f *Factory) resolveMicro(spec telemetry.SessionSpec, horizon kernel.Time) (resolved, error) {
	img, err := f.cachedImage("micro", func() (*asm.Image, error) {
		return guest.Primes(DefaultMicroPrimes).Image, nil
	})
	if err != nil {
		return resolved{}, err
	}
	r := resolved{img: img, horizon: horizon}
	switch spec.Policy {
	case "", "default", "code-injection":
		// The standard code-injection policy Table II uses for rows without
		// their own: perf.SessionPolicy with a nil Policy hook selects it.
		r.policy, r.polName = perf.SessionPolicy(perf.Workload{}, img), "code-injection"
	case "none":
		r.polName = "none"
	default:
		return resolved{}, fmt.Errorf("serve: micro policy must be default, code-injection or none, not %q", spec.Policy)
	}
	return r, nil
}

func (f *Factory) resolveAttack(spec telemetry.SessionSpec, horizon kernel.Time) (resolved, error) {
	num, err := strconv.Atoi(strings.TrimPrefix(spec.Workload, "wk-"))
	if err != nil {
		return resolved{}, fmt.Errorf("serve: bad attack name %q (want wk-<n>)", spec.Workload)
	}
	for _, a := range wk.Suite() {
		if a.Num != num {
			continue
		}
		if !a.Applicable() {
			return resolved{}, fmt.Errorf("serve: attack wk-%d not applicable: %s", num, a.NAReason)
		}
		img, err := f.cachedImage(spec.Workload, a.Build)
		if err != nil {
			return resolved{}, err
		}
		r := resolved{img: img, horizon: horizon}
		if r.horizon == 0 {
			r.horizon = kernel.S
		}
		switch spec.Policy {
		case "", "default":
			r.policy, r.polName = wk.Policy(img), "wk"
		case "none":
			r.polName = "none"
		default:
			return resolved{}, fmt.Errorf("serve: attack policy must be default or none, not %q", spec.Policy)
		}
		attack := a
		r.drive = func(pl *soc.Platform) func() error {
			injected := false
			return func() error {
				if !injected {
					pl.UART.Inject(attack.Payload(img))
					injected = true
				}
				return nil
			}
		}
		return r, nil
	}
	return resolved{}, fmt.Errorf("serve: no attack wk-%d in the suite", num)
}

func (f *Factory) resolvePerf(spec telemetry.SessionSpec, horizon kernel.Time) (resolved, error) {
	scaleName := spec.Scale
	if scaleName == "" {
		scaleName = "small"
	}
	scale, err := perf.ParseScale(scaleName)
	if err != nil {
		return resolved{}, err
	}
	for _, w := range perf.Workloads(scale) {
		if w.Name != spec.Workload {
			continue
		}
		if w.Drive != nil {
			return resolved{}, fmt.Errorf("serve: workload %q needs an interactive driver; request \"immo\" instead", w.Name)
		}
		img, err := f.cachedImage(w.Name+"|"+scaleName, func() (*asm.Image, error) {
			return w.Build(), nil
		})
		if err != nil {
			return resolved{}, err
		}
		r := resolved{img: img, horizon: horizon}
		if r.horizon == 0 {
			r.horizon = w.Horizon
		}
		switch spec.Policy {
		case "", "default":
			r.policy, r.polName = perf.SessionPolicy(w, img), "default"
		case "none":
			r.polName = "none"
		default:
			return resolved{}, fmt.Errorf("serve: workload policy must be default or none, not %q", spec.Policy)
		}
		return r, nil
	}
	return resolved{}, fmt.Errorf("serve: unknown workload %q (have %s)", spec.Workload, strings.Join(Names(), ", "))
}

// Key content-hashes everything that determines a session's result: the
// flattened image bytes and layout, the policy name, the stimulus, the
// horizon, and the observability attachments (a sampled run reports sample
// counts a bare run cannot, so they must not coalesce).
func (f *Factory) Key(spec telemetry.SessionSpec) (string, error) {
	r, err := f.resolve(spec)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write(r.img.Flatten())
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], r.img.Base)
	binary.LittleEndian.PutUint32(hdr[4:], r.img.Entry)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r.horizon))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(spec.SampleUs))
	h.Write(hdr[:])
	fmt.Fprintf(h, "|%s|%s|%v", r.polName, spec.Stimulus, spec.Observe)
	// Coverage capture changes the stored result's shape (it grows a
	// snapshot), so covered and uncovered runs must not share a dedup key.
	// Appended conditionally to keep every pre-existing key stable.
	if spec.Cover {
		fmt.Fprintf(h, "|cover")
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// Build constructs the platform for a spec: soc.New with the resolved
// policy, optional observer and sampler, the image loaded into RAM that
// Load sizes to it, and the drive closure bound. Close releases the
// platform at finalize.
func (f *Factory) Build(spec telemetry.SessionSpec) (telemetry.SessionConfig, error) {
	r, err := f.resolve(spec)
	if err != nil {
		return telemetry.SessionConfig{}, err
	}
	cfg := soc.Config{Policy: r.policy}
	if spec.Observe {
		cfg.Obs = obs.New()
	}
	if spec.Cover {
		cfg.Cover = cover.New()
	}
	var smp *telemetry.Sampler
	if spec.SampleUs > 0 {
		smp = telemetry.NewSampler(telemetry.Options{Every: kernel.Time(spec.SampleUs) * kernel.US})
		cfg.Telemetry = smp
	}
	pl, err := soc.New(cfg)
	if err != nil {
		return telemetry.SessionConfig{}, err
	}
	if err := pl.Load(r.img); err != nil {
		pl.Shutdown()
		return telemetry.SessionConfig{}, err
	}
	sc := telemetry.SessionConfig{
		Platform: pl,
		Sampler:  smp,
		Horizon:  r.horizon,
		Close:    pl.Shutdown,
	}
	if spec.Cover {
		workload, polName := spec.Workload, r.polName
		sc.CoverSnapshot = func() *cover.Snapshot {
			return pl.CoverSnapshot(workload, polName)
		}
	}
	if r.drive != nil {
		sc.Drive = r.drive(pl)
	}
	return sc, nil
}

// seedByte derives the immobilizer round seed from the stimulus string, so
// distinct stimuli drive genuinely distinct challenge sequences (and the
// dedup key difference is not cosmetic).
func seedByte(stimulus string) byte {
	if stimulus == "" {
		return 1
	}
	h := fnv.New32a()
	h.Write([]byte(stimulus))
	b := byte(h.Sum32())
	if b == 0 {
		b = 1
	}
	return b
}
