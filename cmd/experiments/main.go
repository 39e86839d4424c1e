// Command experiments regenerates the tables and figures of the paper's
// evaluation section (Sec. 7) on the simulated hardware model, batching
// the evaluation points across worker goroutines via internal/pipeline.
//
// Usage:
//
//	experiments -table 1            # hardware parameters (Table 1)
//	experiments -table 2            # benchmark suite and zone sizes (Table 2)
//	experiments -table 3            # main results (Table 3)
//	experiments -table 3 -summary   # plus the Sec. 7.2 aggregate claims
//	experiments -figure 6a          # fidelity ablation, QAOA-regular3
//	experiments -figure 6b..6e      # remaining Fig. 6 panels
//	experiments -figure 7           # multi-AOD sweep
//	experiments -all                # everything, in paper order
//	experiments -verify             # verification sweep: every family x
//	                                # every pipeline through the
//	                                # differential verifier (non-zero exit
//	                                # on any violation)
//	experiments -jobs 8             # compile on 8 workers (default GOMAXPROCS)
//	experiments -csv                # emit CSV instead of aligned text
//	experiments -json               # emit one JSON document instead of text
//	experiments -stable             # omit wall-clock columns: output is
//	                                # byte-identical across runs and -jobs
//	experiments -progress=false     # silence per-job streaming on stderr
//	experiments -cpuprofile cpu.pb.gz   # write a pprof CPU profile
//	experiments -memprofile mem.pb.gz   # write a pprof heap profile at exit
//
// Results are independent of -jobs: every evaluation point is a
// deterministic function of its (benchmark, scheme, AOD-count) key, and
// the engine returns results in job order. Only the measured compile-time
// columns vary run to run; -stable masks them. A single engine cache
// backs the whole invocation, so under -all the Fig. 6 and Fig. 7 points
// that revisit Table-3 compilations are served from cache (the stderr
// stats line reports the hit count). Interrupting with Ctrl-C cancels the
// batch cleanly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"powermove/internal/experiments"
	"powermove/internal/pipeline"
	"powermove/internal/report"
)

func main() {
	var (
		table      = flag.String("table", "", "regenerate a table: 1, 2, or 3")
		figure     = flag.String("figure", "", "regenerate a figure: 6a, 6b, 6c, 6d, 6e, or 7")
		verifyRun  = flag.Bool("verify", false, "run the verification sweep: every workload family x every pipeline through the differential verifier; exits non-zero on any violation")
		summary    = flag.Bool("summary", false, "with -table 3: also print the Sec. 7.2 aggregate claims")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut    = flag.Bool("json", false, "emit one JSON document instead of text")
		jobs       = flag.Int("jobs", 0, "worker goroutines for the batch engine (<1 selects GOMAXPROCS)")
		stable     = flag.Bool("stable", false, "omit wall-clock compile times so output is byte-identical across runs")
		progress   = flag.Bool("progress", true, "stream per-job completions to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if !*all && !*verifyRun && *table == "" && *figure == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			fail(err)
			runtime.GC() // settle live-heap accounting before the snapshot
			fail(pprof.WriteHeapProfile(f))
			fail(f.Close())
		}()
	}
	switch *table {
	case "", "1", "2", "3":
	default:
		fail(fmt.Errorf("unknown table %q", *table))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &experiments.Runner{Jobs: *jobs}
	if *progress {
		runner.OnResult = func(done, total int, r pipeline.Result) {
			status := ""
			if r.Cached {
				status = "  (cached)"
			}
			if r.Err != nil {
				status = "  ERROR: " + r.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%*d/%d] %-40s %s%s\n",
				len(fmt.Sprint(total)), done, total, r.Key, r.Elapsed.Round(time.Microsecond), status)
		}
	}

	out := &document{Figure6: map[string][]experiments.Figure6Point{}}
	emit := func(t *report.Table) {
		if *jsonOut {
			return
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	if *all || *table == "1" {
		out.Table1 = experiments.Table1()
		emit(out.Table1)
	}
	if *all || *table == "2" {
		out.Table2 = experiments.Table2()
		emit(out.Table2)
	}
	if *all || *table == "3" {
		rows, err := runner.Table3Rows(ctx)
		fail(err)
		if *stable {
			for _, r := range rows {
				r.Stabilize()
			}
		}
		out.Table3 = rows
		emit(experiments.Table3Render(rows, *stable))
		if *all || *summary {
			out.Summary = experiments.Summary(rows, *stable)
			emit(out.Summary)
		}
	}
	figures := experiments.Figure6Panels()
	runFigure6 := func(panel string) {
		fam := figures[panel]
		points, err := runner.Figure6Panel(ctx, fam)
		fail(err)
		if *stable {
			for _, pt := range points {
				pt.Row.Stabilize()
			}
		}
		out.Figure6[panel] = points
		emit(experiments.Figure6Table(fam, points))
	}
	runFigure7 := func() {
		points, err := runner.Figure7Sweep(ctx)
		fail(err)
		if *stable {
			for i := range points {
				points[i].Result.Stabilize()
			}
		}
		out.Figure7 = points
		emit(experiments.Figure7Table(points))
	}
	switch {
	case *all:
		for _, panel := range []string{"6a", "6b", "6c", "6d", "6e"} {
			runFigure6(panel)
		}
		runFigure7()
	default:
		if _, ok := figures[*figure]; ok {
			runFigure6(*figure)
		} else if *figure == "7" {
			runFigure7()
		} else if *figure != "" {
			fail(fmt.Errorf("unknown figure %q", *figure))
		}
	}

	var verifyErr error
	if *verifyRun {
		points, err := runner.VerifySweep(ctx)
		fail(err)
		out.Verify = points
		emit(experiments.VerifySweepTable(points))
		// Surface the sweep table (and the JSON document, below) before
		// failing, so the report shows which points broke.
		verifyErr = experiments.VerifySweepErr(points)
	}

	stats := runner.Stats()
	if stats.Jobs > 0 {
		fmt.Fprintf(os.Stderr, "pipeline: %d jobs on %d workers: %d compiled, %d cache hits, %s\n",
			stats.Jobs, stats.Workers, stats.Compiles, stats.CacheHits, stats.Wall.Round(time.Millisecond))
	}
	if *jsonOut {
		// Engine accounting (wall time, worker count) is run metadata,
		// not results; it is omitted under -stable so the document is
		// byte-identical across runs and -jobs.
		if stats.Jobs > 0 && !*stable {
			out.Stats = &stats
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fail(enc.Encode(out))
	}
	fail(verifyErr)
}

// document is the -json output: every requested table and figure plus the
// engine accounting.
type document struct {
	Table1  *report.Table                         `json:"table1,omitempty"`
	Table2  *report.Table                         `json:"table2,omitempty"`
	Table3  []*experiments.RowResult              `json:"table3,omitempty"`
	Summary *report.Table                         `json:"summary,omitempty"`
	Figure6 map[string][]experiments.Figure6Point `json:"figure6,omitempty"`
	Figure7 []experiments.Figure7Point            `json:"figure7,omitempty"`
	Verify  []experiments.VerifyPoint             `json:"verify,omitempty"`
	Stats   *pipeline.Stats                       `json:"stats,omitempty"`
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
