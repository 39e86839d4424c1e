package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: powermove
cpu: Shared KVM processor
BenchmarkTable2-8             	       1	   1514644 ns/op
BenchmarkTable3/BV-14-8       	       1	   5167157 ns/op	         0.7795 fid-enola	         0.9445 fid-storage
BenchmarkEdgeColoring-8       	       1	     93145 ns/op
PASS
ok  	powermove	24.5s
`

func TestParseBenchOutput(t *testing.T) {
	doc, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// Sorted by name, the uniform GOMAXPROCS suffix stripped.
	if doc.Benchmarks[0].Name != "BenchmarkEdgeColoring" {
		t.Errorf("first bench = %q", doc.Benchmarks[0].Name)
	}
	var table3 *Bench
	for i := range doc.Benchmarks {
		if doc.Benchmarks[i].Name == "BenchmarkTable3/BV-14" {
			table3 = &doc.Benchmarks[i]
		}
	}
	if table3 == nil {
		t.Fatalf("BenchmarkTable3/BV-14 missing from %+v", doc.Benchmarks)
	}
	if table3.NsPerOp != 5167157 {
		t.Errorf("ns/op = %v", table3.NsPerOp)
	}
	if table3.Metrics["fid-enola"] != 0.7795 || table3.Metrics["fid-storage"] != 0.9445 {
		t.Errorf("metrics = %v", table3.Metrics)
	}
}

// TestParseNoCPUSuffix covers GOMAXPROCS=1 output, where go test appends
// no marker: names that naturally end in numbers (qubit counts) must
// survive intact, so single-core and multi-core documents share names.
func TestParseNoCPUSuffix(t *testing.T) {
	const singleCore = `BenchmarkTable2 	       1	   1514644 ns/op
BenchmarkTable3/BV-14 	       1	   5167157 ns/op
BenchmarkTable3/QFT-18 	       1	   9000000 ns/op
`
	doc, err := parseBenchOutput(strings.NewReader(singleCore))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"BenchmarkTable2", "BenchmarkTable3/BV-14", "BenchmarkTable3/QFT-18"}
	for i, b := range doc.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("name[%d] = %q, want %q", i, b.Name, want[i])
		}
	}

	// The same benches on an 8-core machine normalize to the same names.
	const eightCore = `BenchmarkTable2-8 	       1	   1514644 ns/op
BenchmarkTable3/BV-14-8 	       1	   5167157 ns/op
BenchmarkTable3/QFT-18-8 	       1	   9000000 ns/op
`
	doc8, err := parseBenchOutput(strings.NewReader(eightCore))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range doc8.Benchmarks {
		if b.Name != want[i] {
			t.Errorf("8-core name[%d] = %q, want %q", i, b.Name, want[i])
		}
	}
}

// TestParseRecordsHost: a parsed document records the host — the CPU
// count and Go version of the parsing process, and the GOMAXPROCS the
// name suffix carried before it was stripped, or 1 without one.
func TestParseRecordsHost(t *testing.T) {
	for _, tc := range []struct {
		out   string
		procs int
	}{
		{sampleOutput, 8},
		{"BenchmarkTable2 \t 1\t 1514644 ns/op\nBenchmarkTable3/BV-14 \t 1\t 5167157 ns/op\n", 1},
	} {
		doc, err := parseBenchOutput(strings.NewReader(tc.out))
		if err != nil {
			t.Fatal(err)
		}
		want := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: tc.procs, GoVersion: runtime.Version()}
		if doc.Host == nil || *doc.Host != want {
			t.Errorf("host = %v, want %v", doc.Host, &want)
		}
	}
}

// TestMinKeepsAgreeingHost: -min keeps the host its inputs agree on and
// drops it when they do not.
func TestMinKeepsAgreeingHost(t *testing.T) {
	h := &Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	other := &Host{NumCPU: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0"}
	doc := func(host *Host) string {
		return writeDoc(t, &Doc{Host: host, Benchmarks: []Bench{{Name: "BenchmarkA", NsPerOp: 1}}})
	}
	for _, tc := range []struct {
		hosts []*Host
		want  *Host
	}{
		{[]*Host{h, h, h}, h},
		{[]*Host{h, other}, nil},
		{[]*Host{h, nil}, nil},
		{[]*Host{nil, h}, nil},
	} {
		var paths []string
		for _, host := range tc.hosts {
			paths = append(paths, doc(host))
		}
		out := filepath.Join(t.TempDir(), "min.json")
		if err := runMin(paths, out); err != nil {
			t.Fatal(err)
		}
		merged, err := readDoc(out)
		if err != nil {
			t.Fatal(err)
		}
		if (merged.Host == nil) != (tc.want == nil) || (merged.Host != nil && *merged.Host != *tc.want) {
			t.Errorf("hosts %v: merged host %v, want %v", tc.hosts, merged.Host, tc.want)
		}
	}
}

// TestCompareHostWarning: a comparison prints both hosts, "unrecorded"
// for a document without one (the checked-in baseline), and warns only
// when two recorded hosts differ.
func TestCompareHostWarning(t *testing.T) {
	h := &Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	other := &Host{NumCPU: 8, GOMAXPROCS: 8, GoVersion: "go1.24.0"}
	if got := hostReport(nil, h); !strings.Contains(got, "baseline unrecorded; current 2 CPUs, GOMAXPROCS 2, go1.24.0") || strings.Contains(got, "WARNING") {
		t.Errorf("unrecorded baseline: %q", got)
	}
	if got := hostReport(h, &Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}); strings.Contains(got, "WARNING") {
		t.Errorf("same host warned: %q", got)
	}
	if got := hostReport(h, other); !strings.Contains(got, "WARNING") {
		t.Errorf("different hosts not warned: %q", got)
	}
}

func TestCompareGate(t *testing.T) {
	base := &Doc{Benchmarks: []Bench{
		{Name: "BenchmarkA", NsPerOp: 1_000_000},
		{Name: "BenchmarkB", NsPerOp: 1_000_000},
		{Name: "BenchmarkTiny", NsPerOp: 1_000}, // below the floor
		{Name: "BenchmarkGone", NsPerOp: 1_000_000},
	}}
	write := func(t *testing.T, doc *Doc) string { return writeDoc(t, doc) }

	// Within threshold, below-floor jumps, new and gone benches: pass.
	cur := &Doc{Benchmarks: []Bench{
		{Name: "BenchmarkA", NsPerOp: 1_200_000},  // +20%
		{Name: "BenchmarkB", NsPerOp: 900_000},    // improvement
		{Name: "BenchmarkTiny", NsPerOp: 100_000}, // 100x but under floor
		{Name: "BenchmarkNew", NsPerOp: 5_000_000},
	}}
	ok, err := runCompare(write(t, base), write(t, cur), 25, 1e5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("gate failed on a within-threshold run")
	}

	// One real regression: fail.
	cur.Benchmarks[0].NsPerOp = 1_300_000 // +30%
	ok, err = runCompare(write(t, base), write(t, cur), 25, 1e5, "")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("gate passed a +30% ns/op regression at a 25% threshold")
	}
}

// TestCompareCalibration checks machine-speed normalization: a host
// running everything 2x slower — calibration bench included — is not a
// regression, while a bench that doubled on top of the machine ratio
// still fails. A genuinely faster machine must not mask one either.
func TestCompareCalibration(t *testing.T) {
	base := &Doc{Benchmarks: []Bench{
		{Name: "BenchmarkCalibration", NsPerOp: 100_000_000},
		{Name: "BenchmarkA", NsPerOp: 1_000_000},
		{Name: "BenchmarkB", NsPerOp: 1_000_000},
	}}
	// Uniformly 2x slower host: pass.
	cur := &Doc{Benchmarks: []Bench{
		{Name: "BenchmarkCalibration", NsPerOp: 200_000_000},
		{Name: "BenchmarkA", NsPerOp: 2_000_000},
		{Name: "BenchmarkB", NsPerOp: 2_100_000}, // +5% beyond machine ratio
	}}
	ok, err := runCompare(writeDoc(t, base), writeDoc(t, cur), 25, 1e5, "BenchmarkCalibration")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("gate failed a uniformly 2x-slower host")
	}

	// BenchmarkB regressed 2x beyond the machine ratio: fail.
	cur.Benchmarks[2].NsPerOp = 4_000_000
	ok, err = runCompare(writeDoc(t, base), writeDoc(t, cur), 25, 1e5, "BenchmarkCalibration")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("gate passed a real regression hidden behind a slow host")
	}

	// A 2x-faster host must not mask a 3x regression (net +50% raw).
	fast := &Doc{Benchmarks: []Bench{
		{Name: "BenchmarkCalibration", NsPerOp: 50_000_000},
		{Name: "BenchmarkA", NsPerOp: 1_500_000},
		{Name: "BenchmarkB", NsPerOp: 500_000},
	}}
	ok, err = runCompare(writeDoc(t, base), writeDoc(t, fast), 25, 1e5, "BenchmarkCalibration")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("gate passed a regression masked by a fast host")
	}
}

func writeDoc(t *testing.T, doc *Doc) string {
	t.Helper()
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	f := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(f, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return f
}
