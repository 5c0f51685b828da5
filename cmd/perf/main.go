// Command perf regenerates Table II of the paper: the performance overhead
// of the VP-based DIFT engine over the seven benchmark workloads, comparing
// the baseline platform (VP) against the DIFT platform (VP+).
//
// Usage:
//
//	perf [-scale small|medium|large] [-only name] [-tlm-mem] [-reps n] [-json file]
//
// Absolute MIPS depend on the host; the reproduced quantity is the
// per-workload overhead factor.
package main

import (
	"flag"
	"fmt"
	"os"

	"vpdift/internal/perf"
)

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: small, medium or large")
	only := flag.String("only", "", "run a single benchmark by name")
	tlmMem := flag.Bool("tlm-mem", false, "route VP+ data accesses through full TLM transactions (the paper's memory-interface organization)")
	jsonOut := flag.String("json", "", "also write the comparison as JSON to this file (e.g. BENCH_table2.json)")
	reps := flag.Int("reps", 1, "run each flavour this many times, VP and VP+ back to back, and keep the fastest of each (denoises shared hosts)")
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
		meta := perf.NewReportMeta(*reps)
		rep.Meta = &meta
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}
