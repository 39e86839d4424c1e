package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"time"

	"powermove/internal/fleet"
	"powermove/internal/service"
	"powermove/internal/store"
)

// reqHeader joins the spans of one request across the client, the
// router and the backend; the router forwards it unchanged.
const reqHeader = "X-Bench-Req"

// stack is the serving tier under test, in process: one fleet.Router in
// front of two service.Server backends (one compile worker each,
// instances b1 and b2) on loopback listeners. Both backends open the
// same store directory, as two daemons sharing a disk would.
type stack struct {
	backends  []*service.Server
	servers   []*httptest.Server
	router    *fleet.Router
	front     *httptest.Server
	transport *http.Transport
}

// jobTTL is how long the backends keep finished jobs. Clients fetch a
// result as soon as its job ends, and a short retention keeps the
// daemons' memory from growing with the number of ops a run completes.
const jobTTL = 2 * time.Second

// newStack starts the tier over dir. cacheSize bounds each backend's
// in-memory LRU. A non-nil tr wraps every hop in spans.
func newStack(dir string, cacheSize int, tr *tracer) (*stack, error) {
	s := &stack{transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	var members []fleet.Backend
	for _, name := range []string{"b1", "b2"} {
		st, err := store.Open(filepath.Join(dir, "store"), 0)
		if err != nil {
			s.close()
			return nil, err
		}
		b := service.New(service.Config{Instance: name, Workers: 1, CacheSize: cacheSize, Store: st, JobTTL: jobTTL})
		s.backends = append(s.backends, b)
		srv := httptest.NewServer(tr.handler("service.http", b.Handler()))
		s.servers = append(s.servers, srv)
		u, err := url.Parse(srv.URL)
		if err != nil {
			s.close()
			return nil, err
		}
		members = append(members, fleet.Backend{Name: name, URL: u})
	}
	rt, err := fleet.NewRouter(fleet.Config{Backends: members, Transport: tr.transport(s.transport)})
	if err != nil {
		s.close()
		return nil, err
	}
	s.router = rt
	s.front = httptest.NewServer(tr.handler("fleet.proxy", rt.Handler()))
	return s, nil
}

// close stops every server and waits for in-flight requests.
func (s *stack) close() {
	if s.front != nil {
		s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
	s.transport.CloseIdleConnections()
}

// counters is the serving tier's own accounting at run end, summed over
// the backends' /metrics plus the router's.
type counters struct {
	cacheHits, cacheMisses, compiles, deduped int64
	probes, prefixHits, warmStarts            int64
	attached, shed                            int64
	storeHits, storeMisses, storeCorrupt      int64
	retried, failovers                        int64
}

func (s *stack) counters() (counters, error) {
	var c counters
	hc := &http.Client{Transport: s.transport, Timeout: 10 * time.Second}
	get := func(u string, v any) error {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s/metrics: %s", u, resp.Status)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	for _, srv := range s.servers {
		var m service.MetricsSnapshot
		if err := get(srv.URL, &m); err != nil {
			return c, err
		}
		c.cacheHits += int64(m.Cache.Hits)
		c.cacheMisses += int64(m.Cache.Misses)
		c.compiles += m.Compiles
		c.deduped += m.Deduped
		c.probes += m.Incremental.Probes
		c.prefixHits += m.Incremental.PrefixHits
		c.warmStarts += m.Incremental.WarmStarts
		c.attached += m.Jobs.Attached
		c.shed += m.Jobs.Shed
		if m.Store != nil {
			c.storeHits += m.Store.Hits
			c.storeMisses += m.Store.Misses
			c.storeCorrupt += m.Store.Corrupt
		}
	}
	var rm fleet.RouterMetrics
	if err := get(s.front.URL, &rm); err != nil {
		return c, err
	}
	c.retried, c.failovers = rm.Retried, rm.Failovers
	return c, nil
}

// client is one closed-loop user: a single keep-alive connection to the
// router.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a non-2xx answer.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.status, strings.TrimSpace(e.body))
}

// do sends one request and reads the whole answer; a non-2xx status is
// an error. req names the request for the spans; span names the
// client's own span.
func (c *client) do(method, path string, body []byte, req, span string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		r.Header.Set(reqHeader, req)
	}
	start := time.Now()
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add(span, req, start, time.Now())
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{resp.StatusCode, string(data)}
	}
	return data, nil
}

// compile is one synchronous POST to path (/v1/compile, with or without
// ?verify=1).
func (c *client) compile(path string, body []byte, req string) ([]byte, error) {
	return c.do(http.MethodPost, path, body, req, "client.compile")
}

// job is one async round trip: submit, follow the event stream to the
// terminal state, fetch the result document. It returns the result and
// the job's id.
func (c *client) job(body []byte, req string) ([]byte, string, error) {
	data, err := c.do(http.MethodPost, "/v1/jobs", body, req+"/submit", "client.submit")
	if err != nil {
		return nil, "", err
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || snap.ID == "" {
		return nil, "", fmt.Errorf("submit: no job id in %q", data)
	}
	events, err := c.do(http.MethodGet, "/v1/jobs/"+snap.ID+"/events", nil, req+"/events", "client.events")
	if err != nil {
		return nil, "", err
	}
	if st := finalState(events); st != "done" {
		return nil, "", fmt.Errorf("job %s ended %q", snap.ID, st)
	}
	result, err := c.do(http.MethodGet, "/v1/jobs/"+snap.ID+"/result", nil, req+"/result", "client.result")
	if err != nil {
		return nil, "", err
	}
	return result, snap.ID, nil
}

// queueWait reads the snapshot of job id for its admission-to-start
// wait. It is a request of its own, so only the traced run's untimed
// probe makes it.
func (c *client) queueWait(id, req string) (float64, error) {
	data, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, req+"/snapshot", "client.snapshot")
	if err != nil {
		return 0, err
	}
	var s struct {
		QueueMS float64 `json:"queue_ms"`
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	return s.QueueMS, nil
}

// finalState returns the state of the last "state" event of an SSE
// stream.
func finalState(stream []byte) string {
	var last string
	isState := false
	for _, line := range strings.Split(string(stream), "\n") {
		switch {
		case line == "event: state":
			isState = true
		case strings.HasPrefix(line, "data: ") && isState:
			var d struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(line[len("data: "):]), &d) == nil {
				last = d.State
			}
			isState = false
		case strings.HasPrefix(line, "event: "):
			isState = false
		}
	}
	return last
}
