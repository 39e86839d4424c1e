// Command bench is the repository's end-to-end benchmark: the offline
// evaluation and the compile service under five workloads, with a traced
// run that attributes their cost to layers. See README.md.
//
//	go run ./bench -seed 1 -out run.json       all five workloads, one process each
//	go run ./bench -workload serve-hot -seed 3 one workload; prints its result line last
//	go run ./bench -trace 1                    the traced run: per-layer metrics and span files
//	go run ./bench -compare a1.json a2.json a3.json -- b1.json b2.json b3.json
//	                                           medians of two sides against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	var (
		cfg      config
		trace    int
		out      string
		compareD bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all five, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "seconds each workload measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	flag.BoolVar(&cfg.quick, "quick", false, "shrink every workload to a smoke test")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for the run's stores, removed again at exit")
	flag.StringVar(&out, "out", "", "write the document of a run of all workloads to this file")
	flag.BoolVar(&compareD, "compare", false, "compare run documents given as arguments: A... -- B..., or a.json b.json")
	flag.Parse()

	if compareD {
		a, b, err := loadSides(flag.Args())
		if err != nil {
			fatalf("%v", err)
		}
		v, err := compare(a, b, os.Stdout)
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(map[string]int{within: 0, outside: 1, unresolved: 3}[v])
	}
	if trace != 0 && trace != 1 {
		fatalf("-trace is 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	if cfg.workload == "" {
		os.Exit(allMain(cfg, out))
	}
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(os.Stdout, cfg.workload, res)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// samplesPrefix marks the line that carries a run's sample counts.
const samplesPrefix = "samples: "

// printResult prints every metric with its unit, the op counts, the
// sample counts, and last the result line.
func printResult(w io.Writer, name string, res *result) {
	for _, tab := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range tab {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Fprintf(w, "%s %-34s %14.6g %s\n", name, m.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "%s attempted=%d failed=%d correct=%v\n", name, res.Attempted, res.Failed, res.Correct)
	samples, _ := json.Marshal(res.Samples)
	fmt.Fprintf(w, "%s%s\n", samplesPrefix, samples)
	last := *res
	last.Samples = nil
	line, _ := json.Marshal(last)
	fmt.Fprintf(w, "%s\n", line)
}

// document is a run of all workloads.
type document struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

// allMain runs every workload in its own child process, so peak RSS and
// GC state are per workload, and writes the run document.
func allMain(cfg config, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	doc := document{Host: measureHost(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]*result{}}
	fmt.Printf("host: %+v\n", doc.Host)
	status := 0
	for _, ws := range workloadSpecs {
		args := []string{"-workload", ws.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", map[bool]string{false: "0", true: "1"}[cfg.trace],
			"-trace-out", cfg.traceOut, "-dir", cfg.dir}
		if cfg.quick {
			args = append(args, "-quick")
		}
		res, err := runChild(self, args)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", ws.Name, err)
			status = 1
			continue
		}
		doc.Workloads[ws.Name] = res
		if !res.Correct {
			status = 1
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatalf("%v", err)
		}
	}
	return status
}

// runChild runs one workload process, echoing its output, and parses its
// sample counts and result line.
func runChild(self string, args []string) (*result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	runErr := cmd.Run()
	var res *result
	var samples map[string]int
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, samplesPrefix); ok {
			if err := json.Unmarshal([]byte(s), &samples); err != nil {
				return nil, err
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	res.Samples = samples
	return res, nil
}

// loadSides reads the documents of a compare: "a1.json a2.json ... --
// b1.json b2.json ...", or just "a.json b.json".
func loadSides(args []string) (a, b []document, err error) {
	pa, pb := args, []string(nil)
	for i, s := range args {
		if s == "--" {
			pa, pb = args[:i], args[i+1:]
		}
	}
	if pb == nil && len(args) == 2 {
		pa, pb = args[:1], args[1:]
	}
	if len(pa) == 0 || len(pb) == 0 {
		return nil, nil, fmt.Errorf("-compare takes A... -- B..., or two documents")
	}
	load := func(paths []string) ([]document, error) {
		var docs []document
		for _, p := range paths {
			var d document
			data, err := os.ReadFile(p)
			if err == nil {
				err = json.Unmarshal(data, &d)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			docs = append(docs, d)
		}
		return docs, nil
	}
	if a, err = load(pa); err == nil {
		b, err = load(pb)
	}
	return a, b, err
}

// The verdicts of a compare.
const (
	within     = "within"
	outside    = "OUTSIDE"
	unresolved = "unresolved"
)

// minSide is the fewest documents a side of a compare needs before its
// own spread, and so a verdict, can be judged.
const minSide = 3

// compare judges side b against side a, per workload and end-to-end
// metric: it prints each side's median and quartile spread, the relative
// change of the medians and the bound, and a verdict. A metric is within
// when every run of b reads better than every run of a. Otherwise it is
// unresolved when a side has fewer than minSide documents or a spread
// wider than the bound, since host noise alone could then explain a
// change, and else within or OUTSIDE by its change. compare
// returns the worst verdict: OUTSIDE, then unresolved. It refuses traced
// documents and documents from hosts with different CPU counts.
func compare(a, b []document, w io.Writer) (string, error) {
	all := append(append([]document{}, a...), b...)
	for _, d := range all {
		if d.Trace {
			return "", fmt.Errorf("compare end-to-end runs, not traced ones")
		}
		if d.Host.NumCPU != all[0].Host.NumCPU || d.Host.GOMAXPROCS != all[0].Host.GOMAXPROCS {
			return "", fmt.Errorf("hosts differ: NumCPU %d vs %d, GOMAXPROCS %d vs %d",
				all[0].Host.NumCPU, d.Host.NumCPU, all[0].Host.GOMAXPROCS, d.Host.GOMAXPROCS)
		}
	}
	values := func(docs []document, wl, m string) []float64 {
		var xs []float64
		for _, d := range docs {
			if r := d.Workloads[wl]; r != nil {
				if v, ok := r.Metrics[m]; ok {
					xs = append(xs, v.Value)
				}
			}
		}
		return xs
	}
	worst := within
	fmt.Fprintf(w, "%-13s %-17s %14s %7s %14s %7s %9s %6s\n", "workload", "metric", "median a", "spread", "median b", "spread", "delta", "bound")
	for _, ws := range workloadSpecs {
		for _, m := range endToEnd {
			xa, xb := values(a, ws.Name, m.Name), values(b, ws.Name, m.Name)
			if len(xa) < len(a) || len(xb) < len(b) {
				fmt.Fprintf(w, "%-13s %-17s missing from a document\n", ws.Name, m.Name)
				worst = outside
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := math.NaN(), math.NaN()
			if len(xa) >= 2 {
				sa = spread(xa)
			}
			if len(xb) >= 2 {
				sb = spread(xb)
			}
			delta := (mb - ma) / ma
			verdict := within
			switch {
			case allBetter(m, xa, xb):
			case len(xa) < minSide || len(xb) < minSide || sa > m.Bound || sb > m.Bound:
				verdict = unresolved
			case worse(m, delta):
				verdict = outside
			}
			if verdict == outside || (verdict == unresolved && worst == within) {
				worst = verdict
			}
			fmt.Fprintf(w, "%-13s %-17s %14.6g %6.1f%% %14.6g %6.1f%% %+8.1f%% %5.0f%% %s\n",
				ws.Name, m.Name, ma, 100*sa, mb, 100*sb, 100*delta, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "verdict: %s (%d documents in a, %d in b)\n", worst, len(a), len(b))
	return worst, nil
}

// allBetter reports whether every value of xb is better for m than every
// value of xa: no regression, however noisy the two sides are.
func allBetter(m metricSpec, xa, xb []float64) bool {
	if m.Better == "higher" {
		return slices.Min(xb) > slices.Max(xa)
	}
	return slices.Max(xb) < slices.Min(xa)
}

// worse reports whether a relative change of m is a regression beyond
// its bound.
func worse(m metricSpec, delta float64) bool {
	if m.Better == "higher" {
		return -delta > m.Bound
	}
	return delta > m.Bound
}
