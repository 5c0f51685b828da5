package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vpdift/internal/core"
	"vpdift/internal/guest"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Views {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	v := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAttachBuildsWhatTheFlagsImply(t *testing.T) {
	var none soc.Config
	if err := parse(t).Attach(&none, false); err != nil || none.Obs != nil || none.Trace != nil || none.Cover != nil || none.Telemetry != nil {
		t.Fatalf("no flags attached %+v (err %v)", none, err)
	}

	// -chrome reuses the caller's observer and brings the kernel stream.
	o := obs.New()
	cfg := soc.Config{Obs: o}
	if err := parse(t, "-chrome", "c.json").Attach(&cfg, false); err != nil {
		t.Fatal(err)
	}
	if cfg.Obs != o || cfg.Trace == nil || cfg.Trace.Kernel == nil || cfg.Trace.VCD != nil || cfg.Trace.Prof != nil {
		t.Errorf("-chrome: obs reused %v, trace %+v", cfg.Obs == o, cfg.Trace)
	}
	cfg = soc.Config{}
	if err := parse(t, "-chrome", "c.json").Attach(&cfg, false); err != nil || cfg.Obs == nil {
		t.Errorf("-chrome alone attached no observer (err %v)", err)
	}

	// -timeseries alone samples at the 1 ms default.
	cfg = soc.Config{}
	if err := parse(t, "-timeseries", "ts.csv").Attach(&cfg, false); err != nil {
		t.Fatal(err)
	}
	if cfg.Telemetry == nil || cfg.Telemetry.Options().Every != telemetry.DefaultEvery {
		t.Errorf("-timeseries alone: sampler %+v, want one at %d ns", cfg.Telemetry, telemetry.DefaultEvery)
	}

	// The heatmap and the audit need a policy.
	for _, args := range [][]string{{"-heatmap", "-"}, {"-policy-audit", "-"}, {"-policy-audit-json", "a.json"}} {
		if err := parse(t, args...).Attach(&soc.Config{}, false); err == nil {
			t.Errorf("%v without a policy attached", args)
		}
	}
	cfg = soc.Config{}
	if err := parse(t, "-heatmap", "-", "-policy-audit-json", "a.json").Attach(&cfg, true); err != nil {
		t.Fatal(err)
	}
	if c := cfg.Cover; c == nil || c.Guest != nil || c.Taint == nil || c.Audit == nil {
		t.Errorf("-heatmap -policy-audit-json: cover %+v, want the taint and audit views only", c)
	}
}

// TestWriteNamesAndFormats runs a guest with every file view on and checks
// each file is written, the timeseries as CSV under a .csv name and the
// heatmap with the image's symbols.
func TestWriteNamesAndFormats(t *testing.T) {
	img := guest.MustProgram("main:\n\tla t0, secret\n\tlw t1, 0(t0)\n\tsw t1, 4(t0)\n\tli a0, 0\n\tret\n\t.data\nsecret:\n\t.word 42\n\t.word 0\n")
	addr := img.MustSymbol("secret")
	l := core.IFP1()
	pol := core.NewPolicy(l, l.MustTag(core.ClassLC)).WithRegion(core.RegionRule{
		Name: "secret", Start: addr, End: addr + 4, Classify: true, Class: l.MustTag(core.ClassHC),
	})

	dir := t.TempDir()
	files := map[string]string{
		"-vcd": "w.vcd", "-profile": "p.txt", "-folded": "f.txt", "-chrome": "c.json",
		"-kernel-trace": "k.jsonl", "-cover": "cov.txt", "-heatmap": "heat.txt",
		"-policy-audit": "audit.txt", "-policy-audit-json": "audit.json", "-timeseries": "ts.csv",
	}
	var args []string
	for f, name := range files {
		args = append(args, f, filepath.Join(dir, name))
	}
	v := parse(t, args...)
	cfg := soc.Config{Policy: pol}
	if err := v.Attach(&cfg, true); err != nil {
		t.Fatal(err)
	}
	pl := soc.MustNew(cfg)
	defer pl.Shutdown()
	if err := pl.Load(img); err != nil {
		t.Fatal(err)
	}
	if err := pl.Run(kernel.Forever); err != nil {
		t.Fatal(err)
	}
	v.Write(pl, img)
	for f, name := range files {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || len(b) == 0 {
			t.Errorf("%s wrote no %s (err %v)", f, name, err)
		}
	}
	if ts, _ := os.ReadFile(filepath.Join(dir, "ts.csv")); !strings.HasPrefix(string(ts), "seq,") {
		t.Errorf("ts.csv is not CSV:\n%.80s", ts)
	}
	if heat, _ := os.ReadFile(filepath.Join(dir, "heat.txt")); !strings.Contains(string(heat), "secret+0x") {
		t.Errorf("heatmap names no symbol:\n%s", heat)
	}
}
