// Package cli holds the observation views the case-study commands (vp-run
// and immo) share: the flags that ask for a waveform, a profile, a trace,
// a coverage or audit report, a metrics timeseries or forensic bundles;
// what each view attaches to the platform; and how its file is named and
// written after the run.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vpdift/internal/asm"
	"vpdift/internal/cover"
	"vpdift/internal/flight"
	"vpdift/internal/kernel"
	"vpdift/internal/obs"
	"vpdift/internal/rv32"
	"vpdift/internal/soc"
	"vpdift/internal/telemetry"
	"vpdift/internal/trace"
)

// Views holds the view flags of one command line.
type Views struct {
	vcd, profile, folded, chrome, kernelTrace string
	cover, heatmap, audit, auditJSON          string
	sampleEvery                               time.Duration
	timeseries                                string
	// Forensics is the -forensics directory, "" when the flag is not set.
	Forensics string
}

// Register defines the view flags on fs.
func Register(fs *flag.FlagSet) *Views {
	v := &Views{}
	fs.StringVar(&v.vcd, "vcd", "", "write a GTKWave-compatible waveform of CPU/peripheral probes to this file")
	fs.StringVar(&v.profile, "profile", "", "write the guest hot-path profile top table to this file ('-' for stderr)")
	fs.StringVar(&v.folded, "folded", "", "write folded call stacks (flamegraph input) to this file")
	fs.StringVar(&v.chrome, "chrome", "", "write taint, kernel and bus events as one merged Chrome trace to this file")
	fs.StringVar(&v.kernelTrace, "kernel-trace", "", "write kernel scheduler and bus events as JSONL to this file")
	fs.StringVar(&v.cover, "cover", "", "write the guest coverage report (blocks/edges, annotated disassembly) to this file ('-' for stderr)")
	fs.StringVar(&v.heatmap, "heatmap", "", "write the taint heatmap report (requires a policy) to this file ('-' for stderr)")
	fs.StringVar(&v.audit, "policy-audit", "", "write the policy-audit report (requires a policy) to this file ('-' for stderr)")
	fs.StringVar(&v.auditJSON, "policy-audit-json", "", "write the policy-audit counters as JSON to this file")
	fs.DurationVar(&v.sampleEvery, "sample-every", 0, "simulated-time metrics sampling period (e.g. 1ms; 0 disables telemetry)")
	fs.StringVar(&v.timeseries, "timeseries", "", "write the sampled metrics timeseries as JSONL to this file (.csv extension selects CSV)")
	fs.StringVar(&v.Forensics, "forensics", "", "write the flight-recorder forensic bundles (JSON + report) into this directory")
	return v
}

// Attach adds to cfg what the views need: an observer for -chrome (one cfg
// already carries is reused), a trace with the kernel stream for
// -kernel-trace and -chrome, the waveform for -vcd, the profiler for
// -profile and -folded, the coverage views, and a metrics sampler, which
// -timeseries alone runs at the 1 ms default. The heatmap and the policy
// audit read tags, so they fail unless dift says the run has a policy.
func (v *Views) Attach(cfg *soc.Config, dift bool) error {
	tagViews := v.heatmap != "" || v.audit != "" || v.auditJSON != ""
	if tagViews && !dift {
		return errors.New("-heatmap/-policy-audit need a policy (see -policy)")
	}
	if v.chrome != "" && cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	needKernel := v.kernelTrace != "" || v.chrome != ""
	if needKernel || v.vcd != "" || v.profile != "" || v.folded != "" {
		tr := &trace.Trace{}
		if needKernel {
			tr.Kernel = trace.NewKernelTrace(0)
		}
		if v.vcd != "" {
			tr.VCD = trace.NewVCD()
		}
		if v.profile != "" || v.folded != "" {
			tr.Prof = trace.NewProfiler(soc.RAMBase, soc.DefaultRAMSize)
		}
		cfg.Trace = tr
	}
	if v.cover != "" || tagViews {
		cov := &cover.Cover{}
		if v.cover != "" {
			cov.Guest = cover.NewGuest()
		}
		if v.heatmap != "" {
			cov.Taint = cover.NewTaint()
		}
		if v.audit != "" || v.auditJSON != "" {
			cov.Audit = cover.NewAudit()
		}
		cfg.Cover = cov
	}
	if v.sampleEvery > 0 || v.timeseries != "" {
		cfg.Telemetry = telemetry.NewSampler(telemetry.Options{
			Every: kernel.Time(v.sampleEvery.Nanoseconds()),
		})
	}
	return nil
}

// Write writes each view's file after the run on pl, in one fixed order.
// The waveform takes a final sample so it extends to the end of the run,
// and the heatmap names its address ranges after img's symbols.
func (v *Views) Write(pl *soc.Platform, img *asm.Image) {
	if tr := pl.Trace(); tr != nil {
		if tr.VCD != nil {
			tr.VCD.Sample(uint64(pl.Now()))
		}
		Export(v.chrome, func(w io.Writer) error { return trace.WriteChromeTrace(w, tr.Kernel, pl.Observer()) })
		Export(v.vcd, tr.VCD.Dump)
		Export(v.profile, func(w io.Writer) error { return tr.Prof.WriteTop(w, 30) })
		Export(v.folded, tr.Prof.WriteFolded)
		Export(v.kernelTrace, tr.Kernel.WriteJSONL)
	}
	if cov := pl.Cover(); cov != nil {
		Export(v.cover, func(w io.Writer) error { return cov.Guest.WriteReport(w, rv32.Disassemble) })
		Export(v.heatmap, func(w io.Writer) error {
			return cov.Taint.WriteHeat(w, func(addr uint32) string {
				if name, off, ok := img.SymbolAt(addr); ok {
					return fmt.Sprintf("%s+0x%x", name, off)
				}
				return ""
			})
		})
		if cov.Audit != nil && cov.Audit.Configured() {
			Export(v.audit, cov.Audit.WriteReport)
			Export(v.auditJSON, cov.Audit.WriteJSON)
		}
	}
	if smp := pl.Telemetry(); smp != nil {
		Export(v.timeseries, func(w io.Writer) error {
			if strings.HasSuffix(v.timeseries, ".csv") {
				return smp.WriteCSV(w)
			}
			return smp.WriteJSONL(w)
		})
	}
}

// WriteForensics writes b into the -forensics directory as the
// <name>.forensics.json and .txt pair and returns the JSON file's path.
// Without the flag or without a bundle it writes nothing and returns "".
func (v *Views) WriteForensics(name string, b *flight.Bundle) string {
	if v.Forensics == "" || b == nil {
		return ""
	}
	path, err := b.WriteFiles(v.Forensics, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return ""
	}
	return path
}

// Export writes one file through write: "" writes nothing and "-" writes
// to stderr. A write or close error is reported and the command goes on
// with its other files; a file that cannot be created ends it with status 1.
func Export(path string, write func(io.Writer) error) {
	var err error
	switch path {
	case "":
		return
	case "-":
		err = write(os.Stderr)
	default:
		f, cerr := os.Create(path)
		if cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			os.Exit(1)
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
