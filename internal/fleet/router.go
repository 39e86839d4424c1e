package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"powermove/internal/jobs"
	"powermove/internal/service"
)

// maxBodyBytes mirrors the service's request-body bound: the router
// buffers bodies for replay on failover, so it enforces the same cap
// before any backend sees the request.
const maxBodyBytes = 8 << 20

// Backend names one powermoved instance. Name must match the daemon's
// -backend-id (the health checker verifies this) and must not contain
// "." — it prefixes job ids, and "." is the separator.
type Backend struct {
	Name string
	URL  *url.URL
}

// Config configures a Router.
type Config struct {
	// Backends are the powermoved instances to route across.
	Backends []Backend
	// VNodes is the virtual-node count per backend on the hash ring;
	// <= 0 selects DefaultVNodes.
	VNodes int
	// HealthInterval is the active probe period for healthy backends;
	// <= 0 selects 2s. Failed backends back off exponentially from
	// this, capped at MaxBackoff.
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe; <= 0 selects 1s.
	ProbeTimeout time.Duration
	// MaxBackoff caps the probe backoff for failed backends; <= 0
	// selects 30s.
	MaxBackoff time.Duration
	// Transport proxies the requests; nil selects
	// http.DefaultTransport.
	Transport http.RoundTripper
}

// backendState is one backend's router-side ledger.
type backendState struct {
	name string
	url  *url.URL

	requests atomic.Int64 // proxied requests answered by this backend
	errors   atomic.Int64 // transport errors talking to it

	mu      sync.Mutex
	latency jobs.Histogram // per-backend proxy latency, queue-compatible buckets
}

// Router is the fleet tier's HTTP front end: it consistent-hash-routes
// every request onto a backend by the request's canonical compile key,
// fails over to the next replica in ring order on transport errors,
// and aggregates the fleet's metrics. Responses carry
// "X-Powermove-Backend: <name>" naming the backend that answered.
//
// Failover is attempted only before any response byte is committed —
// a backend that died mid-stream surfaces as a truncated response (the
// client retries; the ring sends it to the replica, which the checker
// has meanwhile marked primary-in-practice). Job-id requests
// (GET/DELETE /v1/jobs/{id}...) are pinned: the id's "<backend>."
// prefix names the only daemon holding that job, so they never fail
// over.
type Router struct {
	ring     *Ring
	backends map[string]*backendState
	checker  *Checker
	proxy    http.RoundTripper
	start    time.Time

	routed    atomic.Int64 // requests proxied (any outcome)
	keyed     atomic.Int64 // routed by canonical compile key (vs body hash/path)
	pinned    atomic.Int64 // routed by job-id backend prefix
	retried   atomic.Int64 // proxy attempts that hit a transport error
	failovers atomic.Int64 // requests answered by a non-primary replica
	failed    atomic.Int64 // requests no backend could answer (502)
}

// NewRouter builds the routing tier and starts its health checker;
// Close stops it.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	rt := &Router{
		backends: make(map[string]*backendState, len(cfg.Backends)),
		proxy:    cfg.Transport,
		start:    time.Now(),
	}
	if rt.proxy == nil {
		rt.proxy = http.DefaultTransport
	}
	names := make([]string, 0, len(cfg.Backends))
	probeURLs := make(map[string]string, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Name == "" || b.URL == nil {
			return nil, fmt.Errorf("fleet: backend needs both a name and a URL")
		}
		if strings.Contains(b.Name, ".") {
			return nil, fmt.Errorf("fleet: backend name %q must not contain %q (the job-id separator)", b.Name, ".")
		}
		if _, dup := rt.backends[b.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate backend name %q", b.Name)
		}
		rt.backends[b.Name] = &backendState{name: b.Name, url: b.URL, latency: jobs.NewHistogram()}
		names = append(names, b.Name)
		probeURLs[b.Name] = strings.TrimRight(b.URL.String(), "/")
	}
	rt.ring = NewRing(names, cfg.VNodes)
	rt.checker = NewChecker(probeURLs, cfg.HealthInterval, cfg.ProbeTimeout, cfg.MaxBackoff)
	rt.checker.Start()
	return rt, nil
}

// Close stops the health checker.
func (rt *Router) Close() { rt.checker.Stop() }

// Handler returns the router's HTTP front end. Every /v1 route proxies
// (GET /v1/jobs merges the fleet's lists); /healthz and /metrics are
// answered by the router itself.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /v1/jobs", rt.handleJobList)
	mux.HandleFunc("/", rt.handleProxy)
	return mux
}

// handleProxy buffers the body, derives the routing key, and walks the
// key's replica sequence until a backend answers.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if _, tooLarge := err.(*http.MaxBytesError); tooLarge {
			status = http.StatusRequestEntityTooLarge
		}
		writeErrorDoc(w, status, "invalid_request", fmt.Sprintf("request body: %v", err))
		return
	}
	rt.routed.Add(1)

	var candidates []string
	if pin := rt.pinnedBackend(r); pin != "" {
		if _, ok := rt.backends[pin]; !ok {
			writeErrorDoc(w, http.StatusNotFound, "not_found",
				fmt.Sprintf("job id names backend %q, which is not in the fleet", pin))
			return
		}
		rt.pinned.Add(1)
		candidates = []string{pin}
	} else {
		key, keyed := rt.routingKey(r, body)
		if keyed {
			rt.keyed.Add(1)
		}
		candidates = rt.candidates(key)
	}

	for i, name := range candidates {
		b := rt.backends[name]
		resp, err := rt.forward(b, r, body)
		if err != nil {
			rt.retried.Add(1)
			b.errors.Add(1)
			rt.checker.MarkDown(name, err)
			continue
		}
		if i > 0 {
			rt.failovers.Add(1)
		}
		rt.respond(w, resp, b)
		return
	}
	rt.failed.Add(1)
	writeErrorDoc(w, http.StatusBadGateway, "no_backend", "no backend could answer the request")
}

// pinnedBackend extracts the backend name from a /v1/jobs/{id}... path
// whose id carries an "<instance>." prefix, or "" when the request is
// not job-id addressed. Jobs live only in the daemon that accepted
// them, so these requests bypass the ring.
func (rt *Router) pinnedBackend(r *http.Request) string {
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	name, _, ok := strings.Cut(id, ".")
	if !ok {
		return ""
	}
	return name
}

// routingKey derives the consistent-hash key for a request. The bool
// reports whether the key is a canonical compile key (the cache
// identity) rather than a body-hash or path fallback.
func (rt *Router) routingKey(r *http.Request, body []byte) (string, bool) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/compile":
		if req, err := service.DecodeCompileRequest(bytes.NewReader(body), r.URL.Query()); err == nil {
			if key, err := req.RoutingKey(); err == nil {
				return key, true
			}
		}
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		if req, err := service.DecodeJobRequest(bytes.NewReader(body)); err == nil {
			if key, err := req.RoutingKey(); err == nil && key != "" {
				return key, true
			}
		}
	case strings.HasPrefix(r.URL.Path, "/v1/experiments/"):
		// Experiments are cacheable per endpoint identity.
		return r.URL.Path + "?" + r.URL.RawQuery, false
	}
	if len(body) > 0 {
		// Malformed or many-keyed bodies (batch) hash whole, so
		// identical submissions still co-locate.
		sum := sha256.Sum256(body)
		return "body:" + hex.EncodeToString(sum[:8]), false
	}
	return r.URL.Path, false
}

// candidates returns the key's replica sequence with unhealthy
// backends moved to the back: the healthy replica closest in ring
// order answers, but a fully-down fleet still attempts its primaries
// rather than refusing outright (the checker's verdict may be stale by
// one probe interval).
func (rt *Router) candidates(key string) []string {
	seq := rt.ring.Sequence(key)
	healthy := make([]string, 0, len(seq))
	var down []string
	for _, name := range seq {
		if rt.checker.Healthy(name) {
			healthy = append(healthy, name)
		} else {
			down = append(down, name)
		}
	}
	return append(healthy, down...)
}

// forward replays the buffered request against one backend. A non-nil
// error is a transport failure before any response arrived — safe to
// retry elsewhere. Any HTTP response, including 5xx, is final: the
// backend answered, and re-running a possibly-side-effecting request
// against a replica is the router's call to refuse.
func (rt *Router) forward(b *backendState, r *http.Request, body []byte) (*http.Response, error) {
	out := r.Clone(r.Context())
	out.RequestURI = "" // client requests must not set it
	out.URL.Scheme = b.url.Scheme
	out.URL.Host = b.url.Host
	out.Host = b.url.Host
	out.Body = io.NopCloser(bytes.NewReader(body))
	out.ContentLength = int64(len(body))
	dropHopByHop(out.Header)
	start := time.Now()
	resp, err := rt.proxy.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	b.requests.Add(1)
	b.mu.Lock()
	b.latency.Observe(time.Since(start))
	b.mu.Unlock()
	return resp, nil
}

// respond streams resp to the client, flushing after every chunk so
// SSE events (GET /v1/jobs/{id}/events) pass through live instead of
// buffering to the stream's end.
func (rt *Router) respond(w http.ResponseWriter, resp *http.Response, b *backendState) {
	defer resp.Body.Close()
	dropHopByHop(resp.Header)
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set("X-Powermove-Backend", b.name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// hopByHop are the connection-scoped headers a proxy must not forward
// (RFC 9110 §7.6.1).
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer",
	"Transfer-Encoding", "Upgrade",
}

func dropHopByHop(h http.Header) {
	for _, k := range hopByHop {
		h.Del(k)
	}
}

// handleJobList is GET /v1/jobs at the fleet level: jobs live only in
// the daemon that accepted them, so the router fans the list out to
// every healthy backend and merges by creation time. Per-backend
// failures degrade the view rather than failing it; the "partial"
// field says so.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	type listed struct {
		raw     json.RawMessage
		created time.Time
	}
	var (
		mu      sync.Mutex
		merged  []listed
		partial bool
		wg      sync.WaitGroup
	)
	for name, b := range rt.backends {
		if !rt.checker.Healthy(name) {
			partial = true
			continue
		}
		wg.Add(1)
		go func(name string, b *backendState) {
			defer wg.Done()
			out := r.Clone(r.Context())
			out.RequestURI = ""
			out.URL.Scheme = b.url.Scheme
			out.URL.Host = b.url.Host
			out.Host = b.url.Host
			out.Body = http.NoBody
			resp, err := rt.proxy.RoundTrip(out)
			if err != nil {
				rt.checker.MarkDown(name, err)
				mu.Lock()
				partial = true
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			var doc struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
				mu.Lock()
				partial = true
				mu.Unlock()
				return
			}
			mu.Lock()
			for _, raw := range doc.Jobs {
				var stamp struct {
					Created time.Time `json:"created"`
				}
				json.Unmarshal(raw, &stamp)
				merged = append(merged, listed{raw: raw, created: stamp.Created})
			}
			mu.Unlock()
		}(name, b)
	}
	wg.Wait()
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].created.Before(merged[j].created) })
	if v := r.URL.Query().Get("limit"); v != "" {
		// Each backend already applied the limit; re-apply it to the
		// merged view with the same keep-the-most-recent semantics.
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil && n > 0 && len(merged) > n {
			merged = merged[len(merged)-n:]
		}
	}
	jobsOut := make([]json.RawMessage, len(merged))
	for i, l := range merged {
		jobsOut[i] = l.raw
	}
	writeJSONDoc(w, http.StatusOK, map[string]any{"jobs": jobsOut, "partial": partial})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := rt.checker.Snapshot()
	healthy := 0
	states := make(map[string]bool, len(snap))
	for name, st := range snap {
		states[name] = st.Healthy
		if st.Healthy {
			healthy++
		}
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		// The router is alive but can serve nothing; tell the load
		// balancer above it.
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSONDoc(w, code, map[string]any{
		"status":   status,
		"role":     "router",
		"uptime_s": time.Since(rt.start).Seconds(),
		"backends": states,
	})
}

// FleetTotals sums the backends' scraped counters: the fleet-wide
// cache economy at a glance.
type FleetTotals struct {
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	StoreHits     int64 `json:"store_hits"`
	Compiles      int64 `json:"compiles"`
	QueueDepth    int   `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	Shed          int64 `json:"shed"`
}

// BackendMetrics is one backend's row in the router's /metrics.
type BackendMetrics struct {
	URL string `json:"url"`
	Status
	// Requests and Errors are the router's own ledger: proxied
	// requests this backend answered, and transport errors talking to
	// it.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors,omitempty"`
	// LatencyMS is the router-observed proxy latency histogram, over
	// the same buckets as the backends' queue histograms.
	Latency jobs.Histogram `json:"latency"`
	// Backend is the backend's own scraped counters (its /metrics
	// "backend" block); null when the scrape failed.
	Backend *service.BackendBlock `json:"backend"`
}

// RouterMetrics is the router's GET /metrics document.
type RouterMetrics struct {
	UptimeS         float64 `json:"uptime_s"`
	Backends        int     `json:"backends"`
	HealthyBackends int     `json:"healthy_backends"`
	// Routed counts proxied requests; Keyed the subset routed by a
	// canonical compile key; Pinned the subset addressed to a specific
	// backend by job-id prefix.
	Routed int64 `json:"routed"`
	Keyed  int64 `json:"keyed"`
	Pinned int64 `json:"pinned"`
	// Retried counts proxy attempts that hit a transport error;
	// Failovers requests ultimately answered by a non-primary replica;
	// Failed requests no backend could answer.
	Retried    int64                     `json:"retried"`
	Failovers  int64                     `json:"failovers"`
	Failed     int64                     `json:"failed"`
	Fleet      FleetTotals               `json:"fleet"`
	PerBackend map[string]BackendMetrics `json:"per_backend"`
}

// Metrics assembles the router's document, scraping each healthy
// backend's /metrics concurrently for its "backend" block.
func (rt *Router) Metrics() RouterMetrics {
	health := rt.checker.Snapshot()
	doc := RouterMetrics{
		UptimeS:    time.Since(rt.start).Seconds(),
		Backends:   len(rt.backends),
		Routed:     rt.routed.Load(),
		Keyed:      rt.keyed.Load(),
		Pinned:     rt.pinned.Load(),
		Retried:    rt.retried.Load(),
		Failovers:  rt.failovers.Load(),
		Failed:     rt.failed.Load(),
		PerBackend: make(map[string]BackendMetrics, len(rt.backends)),
	}
	type scraped struct {
		name  string
		block *service.BackendBlock
	}
	results := make(chan scraped, len(rt.backends))
	var wg sync.WaitGroup
	for name, b := range rt.backends {
		if !health[name].Healthy {
			results <- scraped{name, nil}
			continue
		}
		wg.Add(1)
		go func(name string, b *backendState) {
			defer wg.Done()
			results <- scraped{name, rt.scrape(b)}
		}(name, b)
	}
	wg.Wait()
	close(results)
	blocks := make(map[string]*service.BackendBlock, len(rt.backends))
	for s := range results {
		blocks[s.name] = s.block
	}
	for name, b := range rt.backends {
		st := health[name]
		if st.Healthy {
			doc.HealthyBackends++
		}
		b.mu.Lock()
		hist := b.latency // value copy; Counts shares the backing array
		hist.Counts = append([]int64(nil), hist.Counts...)
		b.mu.Unlock()
		row := BackendMetrics{
			URL:      b.url.String(),
			Status:   st,
			Requests: b.requests.Load(),
			Errors:   b.errors.Load(),
			Latency:  hist,
			Backend:  blocks[name],
		}
		doc.PerBackend[name] = row
		if blk := blocks[name]; blk != nil {
			doc.Fleet.CacheHits += blk.CacheHits
			doc.Fleet.CacheMisses += blk.CacheMisses
			doc.Fleet.StoreHits += blk.StoreHits
			doc.Fleet.Compiles += blk.Compiles
			doc.Fleet.QueueDepth += blk.QueueDepth
			doc.Fleet.QueueCapacity += blk.QueueCapacity
			doc.Fleet.Shed += blk.Shed
		}
	}
	return doc
}

// scrape fetches one backend's /metrics "backend" block; nil when the
// backend is unreachable or predates -backend-id.
func (rt *Router) scrape(b *backendState) *service.BackendBlock {
	u := *b.url
	u.Path = strings.TrimRight(u.Path, "/") + "/metrics"
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return nil
	}
	client := &http.Client{Transport: rt.proxy, Timeout: 2 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var doc struct {
		Backend *service.BackendBlock `json:"backend"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil
	}
	return doc.Backend
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSONDoc(w, http.StatusOK, rt.Metrics())
}

// writeJSONDoc emits v with the service's canonical encoding, so
// router documents diff cleanly against backend ones.
func writeJSONDoc(w http.ResponseWriter, status int, v any) {
	out, err := service.EncodeJSON(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)
}

// writeErrorDoc emits the service's error envelope shape for errors
// the router itself originates, so clients parse one format fleet-wide.
func writeErrorDoc(w http.ResponseWriter, status int, code, msg string) {
	writeJSONDoc(w, status, map[string]any{
		"error": map[string]any{"code": code, "message": msg},
	})
}
