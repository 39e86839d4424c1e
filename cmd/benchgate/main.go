// Command benchgate turns `go test -bench` output into the repository's
// benchmark-trajectory JSON (BENCH_*.json) and gates CI on performance
// regressions against a checked-in baseline.
//
// Parse benchmark output into JSON:
//
//	go test -bench . -benchtime 1x -run '^$' ./... | benchgate -parse -out BENCH_pr.json
//
// Compare a PR's numbers against the baseline, failing (exit 1) when any
// benchmark's ns/op regressed by more than the threshold:
//
//	benchgate -compare -baseline BENCH_baseline.json -current BENCH_pr.json -threshold 25
//
// Merge several parsed documents into a noise-robust baseline, keeping
// each benchmark's fastest observation (single-iteration timings have a
// heavy right tail; the minimum is the stable statistic):
//
//	benchgate -min -out BENCH_baseline.json run1.json run2.json run3.json
//
// Comparisons are machine-speed normalized: when both documents contain
// the code-independent calibration bench (BenchmarkCalibration in this
// repository's suite, a fixed pure-CPU loop), current ns/op are divided
// by the hosts' calibration ratio before gating, so a baseline recorded
// on one machine gates runs from another.
//
// Benchmarks below -min-ns in the baseline (default 10ms) are reported
// but never gated: measured across repeated runs, single-iteration
// timings under ~10ms swing 30-50% run to run on a shared machine —
// beyond the gate's threshold — while the 10ms+ end-to-end benches
// (full table/figure suites, the pipeline scaling benches) hold within
// a few percent.
// Benchmarks present on only one side are reported but never fail the
// gate, so adding or retiring a bench doesn't require touching the
// baseline in the same commit. The GOMAXPROCS suffix (`-8`) is stripped
// from names so documents compare across machines with different core
// counts.
//
// Each parsed document records its host: the CPU count, the GOMAXPROCS
// the benches ran at (read from that suffix) and the Go version. -min
// keeps the host when its inputs agree, and -compare prints both hosts
// and warns when they differ, since calibration corrects for a slower
// machine but not for a different core count or toolchain.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Doc is one BENCH_*.json document: every benchmark of one run.
type Doc struct {
	// Host is the machine the run was measured on; nil when unrecorded.
	Host       *Host   `json:"host,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Host describes the machine and toolchain behind a document.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// String renders the host, or "unrecorded" for a document without one.
func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %s", h.NumCPU, h.GOMAXPROCS, h.GoVersion)
}

// hostReport renders the host lines of a comparison: both hosts, and a
// warning when both are recorded and differ.
func hostReport(base, cur *Host) string {
	out := fmt.Sprintf("host: baseline %s; current %s\n", base, cur)
	if base != nil && cur != nil && *base != *cur {
		out += "benchgate: WARNING: the documents come from different hosts; calibration rescales machine speed only\n"
	}
	return out
}

// Bench is one benchmark's measurements: its wall-clock cost plus every
// custom quality metric attached via b.ReportMetric (fidelities,
// execution times, speedup ratios — the experiment side of the bench).
type Bench struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		parse     = flag.Bool("parse", false, "parse `go test -bench` output on stdin (or -in) into JSON")
		in        = flag.String("in", "", "with -parse: read benchmark output from this file instead of stdin")
		out       = flag.String("out", "", "with -parse: write JSON here instead of stdout")
		compare   = flag.Bool("compare", false, "compare -current against -baseline and gate on ns/op regressions")
		min       = flag.Bool("min", false, "merge the document args into one, keeping each bench's fastest ns/op")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "with -compare: baseline document")
		current   = flag.String("current", "BENCH_pr.json", "with -compare: document under test")
		threshold = flag.Float64("threshold", 25, "with -compare: fail when ns/op regresses by more than this percentage")
		minNs     = flag.Float64("min-ns", 1e7, "with -compare: skip benchmarks whose baseline ns/op is below this (single-iteration noise)")
		calibrate = flag.String("calibrate", "BenchmarkCalibration", "with -compare: normalize ns/op by this code-independent reference bench before gating (empty disables)")
	)
	flag.Parse()

	modes := 0
	for _, m := range []bool{*parse, *compare, *min} {
		if m {
			modes++
		}
	}
	switch {
	case modes != 1:
		fail(fmt.Errorf("specify exactly one of -parse, -compare, and -min"))
	case *parse:
		if err := runParse(*in, *out); err != nil {
			fail(err)
		}
	case *compare:
		ok, err := runCompare(*baseline, *current, *threshold, *minNs, *calibrate)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *min:
		if err := runMin(flag.Args(), *out); err != nil {
			fail(err)
		}
	}
}

// cpuSuffix is the trailing GOMAXPROCS marker go test appends to
// benchmark names ("BenchmarkFoo-8"). It cannot be stripped per line:
// benchmark names here legitimately end in numbers ("Table3/BV-14"),
// and at GOMAXPROCS=1 go test appends no marker at all. stripCPUSuffix
// removes it only when every name of a run carries the same trailing
// number — the one thing a uniform suffix can be.
var cpuSuffix = regexp.MustCompile(`-(\d+)$`)

// stripCPUSuffix normalizes names in place so documents compare across
// machines with different core counts. It returns the GOMAXPROCS the
// marker named, or 1 when there was none.
func stripCPUSuffix(benchmarks []Bench) int {
	if len(benchmarks) == 0 {
		return 1
	}
	shared := ""
	for i, b := range benchmarks {
		m := cpuSuffix.FindStringSubmatch(b.Name)
		if m == nil {
			return 1 // some name has no trailing number: no uniform marker
		}
		if i == 0 {
			shared = m[1]
		} else if m[1] != shared {
			return 1 // trailing numbers differ: they are bench data, not a marker
		}
	}
	for i := range benchmarks {
		benchmarks[i].Name = strings.TrimSuffix(benchmarks[i].Name, "-"+shared)
	}
	procs, err := strconv.Atoi(shared)
	if err != nil || procs < 1 {
		return 1
	}
	return procs
}

// runParse converts benchmark output to a sorted JSON document.
func runParse(in, out string) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	doc, err := parseBenchOutput(r)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// parseBenchOutput extracts every "Benchmark... N <value unit>..." line.
// go test emits measurements as (value, unit) pairs after the iteration
// count; ns/op is the gate metric, everything else (including
// ReportMetric's custom units) lands in Metrics.
func parseBenchOutput(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. a "Benchmarking..." log line, not a result
		}
		b := Bench{Name: fields[0]}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", b.Name, fields[i])
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				b.NsPerOp = val
				continue
			}
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = val
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Host = &Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: stripCPUSuffix(doc.Benchmarks),
		GoVersion:  runtime.Version(),
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// runMin merges parsed documents, keeping for each benchmark the entry
// with the fastest ns/op (its quality metrics ride along; they are
// deterministic, so any run's copy is the same). The merged document
// keeps the inputs' host when they all record the same one.
func runMin(paths []string, out string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-min needs at least two documents, got %d", len(paths))
	}
	best := make(map[string]Bench)
	var order []string
	var host *Host
	for i, path := range paths {
		doc, err := readDoc(path)
		if err != nil {
			return err
		}
		switch {
		case i == 0:
			host = doc.Host
		case host != nil && (doc.Host == nil || *doc.Host != *host):
			host = nil
		}
		for _, b := range doc.Benchmarks {
			prev, seen := best[b.Name]
			if !seen {
				order = append(order, b.Name)
			}
			if !seen || b.NsPerOp < prev.NsPerOp {
				best[b.Name] = b
			}
		}
	}
	sort.Strings(order)
	merged := &Doc{Host: host, Benchmarks: make([]Bench, 0, len(order))}
	for _, name := range order {
		merged.Benchmarks = append(merged.Benchmarks, best[name])
	}
	enc, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// runCompare prints a per-benchmark verdict and reports whether the gate
// passed. When both documents carry the calibration bench, every
// current-side ns/op is divided by the machines' calibration ratio
// first, so a uniformly slower (or faster) host doesn't read as a
// regression (or mask one); the calibration bench itself is never
// gated — it is the denominator.
func runCompare(baselinePath, currentPath string, thresholdPct, minNs float64, calibrate string) (bool, error) {
	base, err := readDoc(baselinePath)
	if err != nil {
		return false, err
	}
	cur, err := readDoc(currentPath)
	if err != nil {
		return false, err
	}
	fmt.Print(hostReport(base.Host, cur.Host))
	baseByName := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseByName[b.Name] = b
	}

	scale := 1.0
	if calibrate != "" {
		var curCal float64
		for _, c := range cur.Benchmarks {
			if c.Name == calibrate {
				curCal = c.NsPerOp
			}
		}
		baseCal := baseByName[calibrate].NsPerOp
		if curCal > 0 && baseCal > 0 {
			scale = curCal / baseCal
			fmt.Printf("calibration: %s %0.f -> %.0f ns/op; normalizing by %.3fx\n\n",
				calibrate, baseCal, curCal, scale)
		} else {
			fmt.Printf("calibration: %s missing from %s; comparing raw ns/op\n\n",
				calibrate, map[bool]string{true: baselinePath, false: currentPath}[baseCal == 0])
		}
	}

	limit := 1 + thresholdPct/100
	var regressions, skipped, fresh int
	// Benchstat-style geomeans of normalized new/old ratios, kept
	// separately for the gated benches (above the noise floor — the
	// trustworthy headline) and the full suite (informational; sub-floor
	// micro-benches jitter far more than they drift).
	var gatedLogSum, allLogSum float64
	var gatedCount, allCount int
	for _, c := range cur.Benchmarks {
		b, ok := baseByName[c.Name]
		delete(baseByName, c.Name)
		norm := c.NsPerOp / scale
		if ok && c.Name != calibrate && b.NsPerOp > 0 && norm > 0 {
			allLogSum += math.Log(norm / b.NsPerOp)
			allCount++
			if b.NsPerOp >= minNs {
				gatedLogSum += math.Log(norm / b.NsPerOp)
				gatedCount++
			}
		}
		switch {
		case !ok:
			fresh++
			fmt.Printf("  new      %-60s %12.0f ns/op (no baseline)\n", c.Name, c.NsPerOp)
		case c.Name == calibrate || b.NsPerOp < minNs:
			skipped++
		case norm > b.NsPerOp*limit:
			regressions++
			fmt.Printf("REGRESSED  %-60s %12.0f -> %.0f ns/op normalized (%+.1f%%, limit +%.0f%%)\n",
				c.Name, b.NsPerOp, norm, 100*(norm/b.NsPerOp-1), thresholdPct)
		default:
			fmt.Printf("  ok       %-60s %12.0f -> %.0f ns/op normalized (%+.1f%%)\n",
				c.Name, b.NsPerOp, norm, 100*(norm/b.NsPerOp-1))
		}
	}
	for name := range baseByName {
		fmt.Printf("  gone     %-60s (in baseline only)\n", name)
	}
	fmt.Printf("\nbenchgate: %d compared, %d regressed, %d below %.0fns floor, %d new, %d gone\n",
		len(cur.Benchmarks)-fresh, regressions, skipped, minNs, fresh, len(baseByName))
	if gatedCount > 0 {
		// The geomean of per-bench ratios is benchstat's summary
		// statistic: < 1.00x means the suite got faster overall. The
		// headline covers only gated benches; sub-floor ones are noise
		// by the gate's own standard.
		fmt.Printf("benchgate: geomean %.3fx over %d gated benches (new/old, normalized; <1 is faster)\n",
			math.Exp(gatedLogSum/float64(gatedCount)), gatedCount)
	}
	if allCount > gatedCount {
		fmt.Printf("benchgate: geomean %.3fx over all %d benches (includes sub-floor noise)\n",
			math.Exp(allLogSum/float64(allCount)), allCount)
	}
	if regressions > 0 {
		fmt.Printf("benchgate: FAIL — ns/op regression beyond +%.0f%% against %s\n", thresholdPct, baselinePath)
		return false, nil
	}
	fmt.Println("benchgate: PASS")
	return true, nil
}

func readDoc(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
