// Command powermoved is the long-running compile service: an HTTP
// daemon over the PowerMove batch engine with a shared LRU compile
// cache whose entries also dedup concurrent identical requests
// (internal/service).
//
//	powermoved                        # serve on :8077
//	powermoved -addr :9000 -workers 4 -cache-size 512
//	powermoved -snapshot-cache 0      # every compile cold (no prefix resumption)
//	powermoved -pprof                 # also serve /debug/pprof/*
//
// Endpoints:
//
//	GET    /v1                        endpoint catalog + build info
//	POST   /v1/compile                compile one circuit (QASM or workload;
//	                                  ?verify=1 runs the differential verifier)
//	POST   /v1/batch                  compile many points on the worker pool
//	GET    /v1/experiments/table/{id}   tables 1, 2, 3        (?stable=1)
//	GET    /v1/experiments/figure/{id}  figures 6a..6e, 7     (?stable=1)
//	POST   /v1/jobs                   submit async work (bounded queue;
//	                                  429 + Retry-After when full)
//	GET    /v1/jobs[/{id}[/result|/events]]  poll, fetch, or stream jobs
//	DELETE /v1/jobs/{id}              cancel a queued or running job
//	GET    /healthz                   liveness + uptime
//	GET    /metrics                   cache/compile/queue/store counters
//	GET    /debug/pprof/*             live profiling (opt-in via -pprof)
//
// For the same request, responses are byte-identical to
// `powermove -json` (both run powermove.CompileJSON's path); CI's smoke
// test holds the two to that contract. SIGINT/SIGTERM drain in-flight
// requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powermove"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		backendID  = flag.String("backend-id", "", `fleet identity of this daemon (labels /metrics and prefixes job ids for powermove-router); no "." allowed`)
		workers    = flag.Int("workers", 0, "max concurrent compiles (<1 selects GOMAXPROCS)")
		cacheSize  = flag.Int("cache-size", 4096, "compile-cache capacity in outcomes (0 = unbounded)")
		queueDepth = flag.Int("queue-depth", 256, "async job queue depth; submissions beyond it shed with 429 (<1 selects 256)")
		jobTTL     = flag.Duration("job-ttl", 15*time.Minute, "retention of finished jobs and their results")
		storeDir   = flag.String("store-dir", "", "disk result-store directory; compiled results survive restarts (empty = memory only)")
		storeMax   = flag.Int64("store-max-bytes", 256<<20, "disk result-store size bound in bytes (0 = unbounded)")
		pprofServe = flag.Bool("pprof", false, "expose /debug/pprof/* (CPU, heap, goroutine profiles) on the listen address")
		snapCache  = flag.Int("snapshot-cache", 64, "incremental-compilation snapshot entries retained (0 disables incremental compilation)")
	)
	flag.Parse()

	if strings.Contains(*backendID, ".") {
		fail(fmt.Errorf("-backend-id %q must not contain %q (the job-id separator)", *backendID, "."))
	}
	cfg := powermove.ServerConfig{
		Instance:   *backendID,
		Workers:    *workers,
		CacheSize:  *cacheSize,
		QueueDepth: *queueDepth,
		JobTTL:     *jobTTL,
	}
	// The flag speaks operator language (0 = off); the config speaks
	// Go-zero-value language (0 = default, negative = off).
	if *snapCache == 0 {
		cfg.SnapshotCache = -1
	} else {
		cfg.SnapshotCache = *snapCache
	}
	if *storeDir != "" {
		st, err := powermove.OpenResultStore(*storeDir, *storeMax)
		if err != nil {
			fail(err)
		}
		cfg.Store = st
	}
	srv := powermove.NewServer(cfg)
	defer srv.Close()
	handler := srv.Handler()
	if *pprofServe {
		// Opt-in only: profiles reveal internals and cost CPU while
		// sampling, so the endpoints never ship enabled by default.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	storeNote := "no disk store"
	if *storeDir != "" {
		storeNote = "store " + *storeDir
	}
	log.Printf("powermoved: serving on %s (cache %d entries, queue depth %d, %s)", *addr, *cacheSize, *queueDepth, storeNote)

	select {
	case <-ctx.Done():
		log.Printf("powermoved: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fail(err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "powermoved:", err)
	os.Exit(1)
}
