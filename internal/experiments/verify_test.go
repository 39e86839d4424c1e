package experiments

import (
	"context"
	"strings"
	"testing"
)

// TestVerifySweepCleanAndComplete: the sweep covers every family under
// every scheme, every point verifies clean, and the renderer and error
// helper agree.
func TestVerifySweepCleanAndComplete(t *testing.T) {
	rn := &Runner{Jobs: 2}
	points, err := rn.VerifySweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 * 3; len(points) != want {
		t.Fatalf("%d sweep points, want %d", len(points), want)
	}
	seen := map[string]int{}
	for _, p := range points {
		if !p.OK() {
			t.Errorf("%s: %+v", p.Key, p.Summary)
		}
		if !p.Key.Verify {
			t.Errorf("%s: job key lost the verify flag", p.Key)
		}
		seen[string(p.Key.Scheme)]++
	}
	for _, scheme := range []string{"enola", "non-storage", "with-storage"} {
		if seen[scheme] != 7 {
			t.Errorf("scheme %s covered %d times, want 7", scheme, seen[scheme])
		}
	}
	if err := VerifySweepErr(points); err != nil {
		t.Errorf("VerifySweepErr on a clean sweep: %v", err)
	}
	table := VerifySweepTable(points).Render()
	if strings.Contains(table, "FAIL") || !strings.Contains(table, "OK") {
		t.Errorf("sweep table renders wrong statuses:\n%s", table)
	}
}

// TestVerifySweepErrReportsFailures: a tampered point is surfaced with
// its key and first message.
func TestVerifySweepErrReportsFailures(t *testing.T) {
	rn := &Runner{Jobs: 2}
	points, err := rn.VerifySweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	broken := append([]VerifyPoint(nil), points...)
	broken[3].Summary = nil
	if err := VerifySweepErr(broken); err == nil {
		t.Error("missing summary not reported")
	} else if !strings.Contains(err.Error(), broken[3].Key.String()) {
		t.Errorf("error does not name the failing point: %v", err)
	}
}
