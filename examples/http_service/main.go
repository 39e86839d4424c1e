// Example http_service drives a running powermoved daemon: it compiles
// one named workload twice (the repeat is a cache hit), submits a small
// three-scheme batch, runs the same compile through the async /v1/jobs
// path (submit → poll → fetch the result document), and prints the
// daemon's cache and queue counters.
//
// Start the daemon, then run the client:
//
//	go run ./cmd/powermoved &
//	go run ./examples/http_service -addr http://localhost:8077
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"powermove"
)

func main() {
	addr := flag.String("addr", "http://localhost:8077", "powermoved base URL")
	flag.Parse()

	// One evaluation point, twice: the second response reports cached=true.
	req := powermove.ServiceCompileRequest{
		Workload:    &powermove.ServiceWorkloadSpec{Family: "QFT", Qubits: 18},
		CompileSpec: powermove.ServiceCompileSpec{Scheme: "with-storage"},
	}
	for _, label := range []string{"cold", "warm"} {
		var resp powermove.ServiceCompileResponse
		if err := post(*addr+"/v1/compile", req, &resp); err != nil {
			fail(err)
		}
		fmt.Printf("%s: %s fidelity=%.4f texe=%.1fus cached=%v\n",
			label, resp.Bench, resp.Fidelity, resp.TexeUS, resp.Cached)
	}

	// A batch: the three-way comparison of one Table-3 row, fanned
	// across the daemon's worker pool.
	bv := func(scheme string) powermove.ServiceCompileRequest {
		return powermove.ServiceCompileRequest{
			Workload:    &powermove.ServiceWorkloadSpec{Family: "BV", Qubits: 14},
			CompileSpec: powermove.ServiceCompileSpec{Scheme: scheme},
		}
	}
	batch := map[string]any{"requests": []powermove.ServiceCompileRequest{
		bv("enola"), bv("non-storage"), bv("with-storage"),
	}}
	var batchResp struct {
		Results []struct {
			Result *powermove.ServiceCompileResponse `json:"result"`
			Error  string                            `json:"error"`
		} `json:"results"`
	}
	if err := post(*addr+"/v1/batch", batch, &batchResp); err != nil {
		fail(err)
	}
	fmt.Println("\nBV-14 three-way comparison:")
	for _, item := range batchResp.Results {
		if item.Error != "" {
			fail(fmt.Errorf("batch item: %s", item.Error))
		}
		r := item.Result
		fmt.Printf("  %-12s fidelity=%.4f texe=%.1fus\n", r.Scheme, r.Fidelity, r.TexeUS)
	}

	// The same compile through the async path: submit a job (202 + id),
	// poll its snapshot until terminal, then fetch the result document —
	// byte-for-byte what /v1/compile returns for the same spec.
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := postStatus(*addr+"/v1/jobs", powermove.ServiceJobRequest{Compile: &req}, &job, http.StatusAccepted); err != nil {
		fail(err)
	}
	fmt.Printf("\nsubmitted job %s (%s)\n", job.ID, job.State)
	for job.State != "done" && job.State != "failed" && job.State != "canceled" {
		time.Sleep(50 * time.Millisecond)
		if err := get(*addr+"/v1/jobs/"+job.ID, &job); err != nil {
			fail(err)
		}
	}
	if job.State != "done" {
		fail(fmt.Errorf("job %s ended %s", job.ID, job.State))
	}
	var async powermove.ServiceCompileResponse
	if err := get(*addr+"/v1/jobs/"+job.ID+"/result", &async); err != nil {
		fail(err)
	}
	fmt.Printf("async:  %s fidelity=%.4f texe=%.1fus cached=%v\n",
		async.Bench, async.Fidelity, async.TexeUS, async.Cached)

	// The daemon's accounting: cache hits/misses/evictions, compiles,
	// requests that joined another's compile in flight (deduped), queue
	// counters, per-endpoint latency.
	var metrics struct {
		Cache    json.RawMessage `json:"cache"`
		Compiles int64           `json:"compiles"`
		Deduped  int64           `json:"deduped"`
		Jobs     struct {
			Submitted int64 `json:"submitted"`
			Done      int64 `json:"done"`
			Shed      int64 `json:"shed"`
		} `json:"jobs"`
	}
	if err := get(*addr+"/metrics", &metrics); err != nil {
		fail(err)
	}
	fmt.Printf("\nmetrics: compiles=%d deduped=%d jobs=%d/%d done cache=%s\n",
		metrics.Compiles, metrics.Deduped, metrics.Jobs.Done, metrics.Jobs.Submitted, metrics.Cache)
}

// get fetches url and decodes the JSON response into out.
func get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, out)
}

// post sends v as JSON and decodes the JSON response into out.
func post(url string, v, out any) error {
	return postStatus(url, v, out, http.StatusOK)
}

// postStatus is post expecting a specific success status (the async
// submit answers 202 Accepted).
func postStatus(url string, v, out any, want int) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, raw)
	}
	return json.Unmarshal(raw, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "http_service:", err)
	os.Exit(1)
}
