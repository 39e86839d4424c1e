package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// which it sorts in place; NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailPercentiles are the percentiles the tail rule chooses from.
var tailPercentiles = []float64{0.5, 0.75, 0.9, 0.99, 0.999}

// tailPercentile returns the highest of tailPercentiles that leaves at
// least ten of n samples beyond it (above its nearest rank), or 0 when
// even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// geomean returns the geometric mean of xs, which must be non-empty and
// positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean of non-positive or non-finite value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// median returns the middle value of xs, or the mean of the middle two;
// NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return (d[(n-1)/2] + d[n/2]) / 2
}

// spread returns the distance between the first and third quartiles of
// xs as a share of their median: the steadiness measure the benchmark's
// acceptance uses. The quartiles are those of Python's
// statistics.quantiles(xs, n=4), its default "exclusive" method, which
// needs at least two values.
func spread(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	quartile := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssWindows records the process's peak resident memory per window of a
// timed phase. At each window's end it reads VmHWM, the peak since the
// last reset, and resets it to the current resident set through
// /proc/self/clear_refs. The lifetime peak alone is one sample of when
// the garbage collector happened to run; the median window peak repeats
// from run to run.
type rssWindows struct {
	stop, done chan struct{}
	peaks      []float64
	err        error
}

// rssWindow is the length of one window.
const rssWindow = time.Second

func startRSSWindows() (*rssWindows, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	s := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s, nil
}

func (s *rssWindows) sample() {
	if s.err != nil {
		return
	}
	mb, err := peakRSSMiB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		s.err = err
		return
	}
	s.peaks = append(s.peaks, mb)
}

// finish closes the last, partial window and returns every window's peak.
func (s *rssWindows) finish() ([]float64, error) {
	close(s.stop)
	<-s.done
	return s.peaks, s.err
}

// resetPeakRSS sets the process's VmHWM to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// host records the machine a document was measured on. Calibration is
// the time of a fixed pure-CPU loop; it is recorded, never used to
// normalise.
type host struct {
	NumCPU        int     `json:"num_cpu"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	GOAMD64       string  `json:"goamd64"`
	CalibrationMS float64 `json:"calibration_ms"`
}

var calibrationSink uint64

func measureHost() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOAMD64:    "v1",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	// The same xorshift loop as the repository's BenchmarkCalibration.
	start := time.Now()
	x := uint64(88172645463325252)
	for j := 0; j < 150_000_000; j++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	h.CalibrationMS = ms(time.Since(start))
	return h
}
