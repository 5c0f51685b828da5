// Command perf regenerates Table II of the paper: the performance overhead
// of the VP-based DIFT engine over the seven benchmark workloads, comparing
// the baseline platform (VP) against the DIFT platform (VP+).
//
// Usage:
//
//	perf [-scale small|medium|large] [-only name] [-reps n] [-json [file]]
//
// Absolute MIPS depend on the host; the reproduced quantity is the
// per-workload overhead factor.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"vpdift/internal/kernel"
	"vpdift/internal/perf"
	"vpdift/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: small, medium or large")
	only := flag.String("only", "", "run a single benchmark by name")
	tlmMem := flag.Bool("tlm-mem", false, "route VP+ data accesses through full TLM transactions (the paper's memory-interface organization)")
	jsonOut := flag.String("json", "", "also write the comparison as JSON to this file (e.g. BENCH_table2.json)")
	baseline := flag.String("baseline", "", "compare against an archived report and fail on MIPS regression (the CI perf guard)")
	regress := flag.Float64("regress", 0.10, "allowed fractional MIPS drop vs -baseline before failing")
	reps := flag.Int("reps", 1, "run each flavour this many times and keep the fastest (denoises shared runners; the guard uses 3)")
	flightGuard := flag.Bool("flight", false, "also re-measure every row with the flight recorder on and off, alternating within each repetition, and fail unless the recorder-on average overhead stays within 5% of recorder-off")
	profileSmoke := flag.Bool("profile", false, "also run one workload with the trace layer attached and print its hot-path top table (trace smoke test)")
	coverSmoke := flag.Bool("cover", false, "also run one workload with the coverage subsystem attached and check it stays within the Table II band of -baseline (coverage smoke test)")
	telemetrySmoke := flag.Bool("telemetry", false, "also run one workload with the live-telemetry sampler attached and check the captured timeseries (telemetry smoke test)")
	sampleEvery := flag.Duration("sample-every", time.Millisecond, "simulated-time sampling period of the -telemetry smoke run (recorded in the -json meta block)")
	flag.Parse()

	scale, err := perf.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var rows []perf.Row
	for _, w := range perf.Workloads(scale) {
		if *only != "" && w.Name != *only {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", w.Name)
		row, err := perf.RunRowBest(w, *tlmMem, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "no benchmark named %q\n", *only)
		os.Exit(2)
	}
	fmt.Println("Table II: performance overhead of the DIFT engine (VP vs VP+)")
	fmt.Print(perf.Table(rows))
	if *jsonOut != "" {
		rep := perf.NewReport(*scaleFlag, *tlmMem, rows)
		meta := perf.NewReportMeta(*reps, kernel.Time((*sampleEvery).Nanoseconds()))
		rep.Meta = &meta
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if *baseline != "" {
		base, err := perf.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if base.Scale != *scaleFlag || base.TLMMem != *tlmMem {
			fmt.Fprintf(os.Stderr, "baseline %s is scale=%s tlm_mem=%v; run with matching flags\n",
				*baseline, base.Scale, base.TLMMem)
			os.Exit(2)
		}
		msgs := perf.CheckRegression(base, rows, *regress)
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "PERF REGRESSION: "+m)
		}
		if len(msgs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perf guard: all workloads within %.0f%% of %s\n",
			*regress*100, *baseline)
	}
	if *flightGuard {
		// The flight-recorder guard: the always-on recorder must not distort
		// the reproduced quantity. Re-measure every row with the recorder on
		// (as shipped) and off, alternating the two within each repetition
		// so host drift hits both alike, and require the average overhead
		// factors to agree within 5%.
		var sumOn, sumOff float64
		n := 0
		for _, w := range perf.Workloads(scale) {
			if *only != "" && w.Name != *only {
				continue
			}
			fmt.Fprintf(os.Stderr, "running %s (flight recorder on and off, alternating)...\n", w.Name)
			on, off, err := perf.RunRowFlightPair(w, *tlmMem, *reps)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			sumOn += on.Overhead()
			sumOff += off.Overhead()
			n++
			fmt.Fprintf(os.Stderr, "flight guard: %-16s VP %7.1f/%7.1f MIPS  VP+ %7.1f/%7.1f MIPS  overhead %.2fx/%.2fx (on/off)\n",
				w.Name, on.VP.MIPS(), off.VP.MIPS(), on.VPPlus.MIPS(), off.VPPlus.MIPS(),
				on.Overhead(), off.Overhead())
		}
		avgOn, avgOff := sumOn/float64(n), sumOff/float64(n)
		delta := avgOn/avgOff - 1
		fmt.Fprintf(os.Stderr, "flight guard: recorder-on average overhead %.2fx vs recorder-off %.2fx (%+.1f%%)\n",
			avgOn, avgOff, delta*100)
		if avgOff <= 0 || delta > 0.05 || delta < -0.05 {
			fmt.Fprintln(os.Stderr, "flight guard FAILED: recorder-on average overhead deviates more than 5% from recorder-off")
			os.Exit(1)
		}
	}
	if *profileSmoke {
		w := perf.Workloads(scale)[0]
		fmt.Fprintf(os.Stderr, "profile smoke: %s on the VP+ with kernel trace and profiler attached\n", w.Name)
		prof, m, err := perf.ProfileSmoke(w, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := prof.WriteTop(os.Stdout, 10); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		hot, _ := prof.Hottest()
		att := prof.Attributed()
		fmt.Fprintf(os.Stderr, "profile smoke: %.1f MIPS traced, hottest %q, %.1f%% of cycles attributed\n",
			m.MIPS(), hot, att*100)
		if hot == "" || att < 0.9 {
			fmt.Fprintln(os.Stderr, "profile smoke FAILED: attribution below 90% or no hottest function")
			os.Exit(1)
		}
	}
	if *coverSmoke {
		w := perf.Workloads(scale)[0]
		fmt.Fprintf(os.Stderr, "cover smoke: %s on the VP+ with guest coverage, taint heatmap and policy audit attached\n", w.Name)
		cv, m, err := perf.CoverSmoke(w, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stats := cv.Guest.Stats()
		fmt.Fprintf(os.Stderr, "cover smoke: %.1f MIPS covered; %s; %d bytes ever tainted; %d fetch checks\n",
			m.MIPS(), cv.Guest.Summary(), cv.Taint.EverTainted(), cv.Audit.Fetch.Checks)
		if stats.InsnsCovered == 0 || stats.EdgesCovered == 0 ||
			cv.Taint.EverTainted() == 0 || cv.Audit.Fetch.Checks == 0 {
			fmt.Fprintln(os.Stderr, "cover smoke FAILED: a coverage view recorded nothing")
			os.Exit(1)
		}
		if *baseline != "" {
			base, err := perf.ReadFile(*baseline)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, b := range base.Rows {
				if b.Name != w.Name || b.VPPlusMIPS <= 0 {
					continue
				}
				// Coverage adds per-retire work comparable to tag tracking
				// itself, so the band is deliberately generous: the smoke only
				// catches pathological slowdowns (an accidental scan per
				// retire), not ordinary noise.
				const band = 0.25
				if m.MIPS() < b.VPPlusMIPS*band {
					fmt.Fprintf(os.Stderr,
						"cover smoke FAILED: %.1f MIPS is below %.0f%% of the archived VP+ %.1f MIPS\n",
						m.MIPS(), band*100, b.VPPlusMIPS)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "cover smoke: within the Table II band (>= %.0f%% of VP+ %.1f MIPS)\n",
					band*100, b.VPPlusMIPS)
			}
		}
	}
	if *telemetrySmoke {
		w := perf.Workloads(scale)[0]
		every := kernel.Time((*sampleEvery).Nanoseconds())
		fmt.Fprintf(os.Stderr, "telemetry smoke: %s on the VP+ with a %v sampler attached\n", w.Name, *sampleEvery)
		smp, m, err := perf.TelemetrySmoke(w, true, every)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		samples := smp.Samples()
		fmt.Fprintf(os.Stderr, "telemetry smoke: %.1f MIPS sampled, %d samples captured\n",
			m.MIPS(), len(samples))
		if len(samples) < 2 {
			fmt.Fprintln(os.Stderr, "telemetry smoke FAILED: fewer than 2 samples captured")
			os.Exit(1)
		}
		for i := 1; i < len(samples); i++ {
			if samples[i].Time <= samples[i-1].Time ||
				samples[i].Metrics["sim.instret"] < samples[i-1].Metrics["sim.instret"] {
				fmt.Fprintln(os.Stderr, "telemetry smoke FAILED: timeseries is not monotone")
				os.Exit(1)
			}
		}
		last := samples[len(samples)-1]
		var buf bytes.Buffer
		if err := telemetry.WritePrometheus(&buf, last.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := telemetry.ValidateExposition(buf.String()); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry smoke FAILED: exposition invalid: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry smoke: timeseries monotone, final instret %d, exposition valid\n",
			last.Metrics["sim.instret"])
	}
}
