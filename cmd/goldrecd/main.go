// Command goldrecd serves the goldrec consolidation pipeline over HTTP:
// upload clustered CSVs, open per-column review sessions whose group
// discovery runs in the background, post approve/reject decisions from
// any HTTP client, plan a fixed review budget across columns by
// expected gain (GET /v1/plan?budget=N), and export golden records.
// See docs/goldrecd.md for a curl walkthrough of the API.
//
//	goldrecd -addr :8080 -ttl 30m -max-sessions 64 -data-dir /var/lib/goldrecd -shards 16
//
// With -data-dir, every dataset and reviewer decision is persisted (a
// snapshot per dataset plus an append-only decision log per session)
// and restored on boot, so restarts and TTL evictions never discard
// review work. Without it, state is memory-only and eviction deletes.
//
// With -auth (and -admin-key-file holding the bootstrap admin key),
// every request must present an API key, datasets and sessions are
// isolated per tenant, and the /v1/tenants admin API manages tenants,
// their keys and their quotas. Tenants persist in -data-dir alongside
// the datasets. API keys never appear in the request log: credential
// headers are not logged and the api_key query parameter is redacted.
//
// Observability (see docs/observability.md): every log line is
// structured (-log-format text|json) and request-scoped lines carry the
// request id the server also returns in the X-Request-ID header;
// GET /metrics/prometheus exposes counters and latency histograms in
// Prometheus text format (admin key only with -auth, since it carries
// every tenant's series); -debug-addr serves the same exposition plus
// net/http/pprof on a separate listener that bypasses -auth (bind it to
// localhost). GET /healthz is pure liveness and answers 200 as soon as
// the listener is up; GET /readyz answers 503 until boot recovery has
// finished replaying persisted state.
//
// The server drains in-flight requests on SIGINT/SIGTERM before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/goldrec/goldrec/internal/events"
	"github.com/goldrec/goldrec/internal/obs"
	"github.com/goldrec/goldrec/internal/obs/trace"
	"github.com/goldrec/goldrec/internal/service"
	"github.com/goldrec/goldrec/internal/store"
	"github.com/goldrec/goldrec/internal/tenant"
)

// version and commit identify the build; release builds stamp them via
//
//	go build -ldflags "-X main.version=v1.2.3 -X main.commit=$(git rev-parse --short HEAD)"
//
// and they surface in the startup log line, the /healthz body and the
// goldrec_build_info gauge.
var (
	version = "dev"
	commit  = "none"
)

// errUsage marks errors the FlagSet has already reported to the user;
// main exits without printing them a second time.
var errUsage = errors.New("usage")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "goldrecd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it parses args with its own FlagSet,
// builds the store and service, starts serving (liveness first),
// recovers persisted state, marks the service ready, then serves until
// ctx is canceled and drains. If ready is non-nil it receives the bound
// listen address once recovery has finished and /readyz answers 200.
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("goldrecd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		ttl          = fs.Duration("ttl", 30*time.Minute, "evict datasets and sessions idle longer than this (0 = never)")
		maxSessions  = fs.Int("max-sessions", 0, "maximum live column sessions across all datasets (0 = unlimited)")
		prefetch     = fs.Int("prefetch", 0, "groups each session keeps buffered ahead of the reviewer (0 = default)")
		dataDir      = fs.String("data-dir", "", "persist datasets and decision logs here and recover them on boot (empty = memory only)")
		maxUpload    = fs.Int64("max-upload-bytes", 0, "maximum dataset upload body size in bytes (0 = unlimited)")
		noSync       = fs.Bool("no-sync", false, "skip fsync on decision-log appends (faster; a host crash may lose the latest decisions)")
		shards       = fs.Int("shards", 0, "registry lock shards; datasets and sessions on distinct shards never contend (0 = GOMAXPROCS)")
		auth         = fs.Bool("auth", false, "require API-key authentication and enforce per-tenant isolation, quotas and rate limits (needs -admin-key-file)")
		adminKeyFile = fs.String("admin-key-file", "", "file holding the bootstrap admin API key for the /v1/tenants admin API (required with -auth)")
		logFormat    = fs.String("log-format", "text", "log output format: text or json")
		debugAddr    = fs.String("debug-addr", "", "serve net/http/pprof, /metrics/prometheus and /debug/traces on this extra listener, bypassing -auth (bind to localhost; empty = off)")
		traceOn      = fs.Bool("trace", true, "record request-scoped spans into the tail-sampled flight recorder (GET /debug/traces on -debug-addr)")
		traceSlow    = fs.Duration("trace-slow", 500*time.Millisecond, "requests at or over this duration are retained as slow and logged with a span breakdown")
		eventsOn     = fs.Bool("events", true, "record the per-tenant audit/event log and serve GET /v1/events (durable with -data-dir)")
		eventsRet    = fs.Duration("events-retention", 7*24*time.Hour, "drop audit events older than this during event-log compaction (0 = keep forever)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("%w: unexpected arguments: %v", errUsage, fs.Args())
	}
	// Reject nonsense values up front with usage errors instead of
	// letting them alias a default deep inside the service (a negative
	// -ttl used to silently mean "never evict").
	switch {
	case *shards < 0:
		fs.Usage()
		return fmt.Errorf("%w: -shards must be >= 0", errUsage)
	case *ttl < 0:
		fs.Usage()
		return fmt.Errorf("%w: -ttl must be >= 0 (0 = never evict)", errUsage)
	case *maxSessions < 0:
		fs.Usage()
		return fmt.Errorf("%w: -max-sessions must be >= 0 (0 = unlimited)", errUsage)
	case *maxUpload < 0:
		fs.Usage()
		return fmt.Errorf("%w: -max-upload-bytes must be >= 0 (0 = unlimited)", errUsage)
	case *prefetch < 0:
		fs.Usage()
		return fmt.Errorf("%w: -prefetch must be >= 0 (0 = default)", errUsage)
	case *auth && *adminKeyFile == "":
		fs.Usage()
		return fmt.Errorf("%w: -auth requires -admin-key-file", errUsage)
	case !*auth && *adminKeyFile != "":
		fs.Usage()
		return fmt.Errorf("%w: -admin-key-file requires -auth", errUsage)
	case *traceSlow <= 0:
		fs.Usage()
		return fmt.Errorf("%w: -trace-slow must be > 0", errUsage)
	case *eventsRet < 0:
		fs.Usage()
		return fmt.Errorf("%w: -events-retention must be >= 0 (0 = keep forever)", errUsage)
	}

	var format obs.LogFormat
	switch *logFormat {
	case "text":
		format = obs.LogText
	case "json":
		format = obs.LogJSON
	default:
		fs.Usage()
		return fmt.Errorf("%w: -log-format must be text or json, got %q", errUsage, *logFormat)
	}

	adminKey := ""
	if *auth {
		raw, err := os.ReadFile(*adminKeyFile)
		if err != nil {
			return fmt.Errorf("reading -admin-key-file: %w", err)
		}
		adminKey = strings.TrimSpace(string(raw))
		if len(adminKey) < 16 {
			return fmt.Errorf("-admin-key-file %q: admin key must be at least 16 characters", *adminKeyFile)
		}
	}

	logger := obs.NewLogger(stderr, format, slog.LevelInfo)
	// The service's event log (session opened, janitor swept, ...) is
	// printf-shaped; route it through the structured logger as plain
	// messages.
	logf := func(f string, args ...any) { logger.Info(fmt.Sprintf(f, args...)) }

	// One registry for everything: store durability timings, service
	// HTTP/tenant/engine metrics, all on one exposition endpoint.
	reg := obs.NewRegistry()

	// The flight recorder. nil with -trace=false: every span call in the
	// service and below no-ops on the nil tracer.
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(trace.Options{SlowThreshold: *traceSlow})
	}

	var st store.Store = store.Null{}
	if *dataDir != "" {
		if fi, err := os.Stat(*dataDir); err == nil && !fi.IsDir() {
			return fmt.Errorf("-data-dir %q is not a directory", *dataDir)
		}
		fsStore, err := store.OpenFS(*dataDir, store.FSOptions{NoSync: *noSync, Metrics: reg})
		if err != nil {
			return fmt.Errorf("opening -data-dir: %w", err)
		}
		defer fsStore.Close()
		st = fsStore
	}

	var tenants *tenant.Registry
	if *auth {
		// The registry shares the service's store, so tenants recover
		// from the same -data-dir as the datasets they own (and are
		// memory-only without one, like everything else).
		var err error
		tenants, err = tenant.Open(st, nil)
		if err != nil {
			return fmt.Errorf("recovering tenants: %w", err)
		}
		logger.Info("auth enabled", slog.Int("tenants_recovered", len(tenants.List())))
	}

	// Build identity: one gauge sample whose labels carry the version
	// and commit, the standard join key for "which build is this
	// instance running" dashboards.
	reg.NewGauge("goldrec_build_info",
		"Build identity; the value is always 1, the labels carry the version.",
		"version", "commit").Gauge(version, commit).Set(1)

	var evlog *events.Log
	if *eventsOn {
		retention := *eventsRet
		if retention == 0 {
			retention = -1 // events.Options: negative disables age compaction.
		}
		el, err := events.Open(events.Options{
			Store:     st,
			Retention: retention,
			Metrics:   reg,
			Logf:      logf,
		})
		if err != nil {
			return fmt.Errorf("opening event log: %w", err)
		}
		evlog = el
		// Closed after svc.Close(): the service may emit during shutdown
		// (final compactions), and the log's close flushes the tail.
		defer evlog.Close()
	}

	svcTTL := *ttl
	if svcTTL == 0 {
		svcTTL = -1 // Options treats 0 as "use default"; negative disables.
	}
	svc := service.New(service.Options{
		TTL:            svcTTL,
		MaxSessions:    *maxSessions,
		Prefetch:       *prefetch,
		Store:          st,
		MaxUploadBytes: *maxUpload,
		Shards:         *shards,
		Tenants:        tenants,
		AdminKey:       adminKey,
		Logf:           logf,
		Metrics:        reg,
		Logger:         logger,
		Tracer:         tracer,
		Events:         evlog,
		BuildInfo:      service.BuildInfo{Version: version, Commit: commit},
	})
	defer svc.Close()

	// Listen before recovery: liveness (/healthz) answers as soon as the
	// socket is up, while /readyz reports 503 until the replay below
	// completes. Cold requests racing recovery are safe — a persistent
	// store restores any not-yet-recovered dataset on first touch.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening",
		slog.String("version", version),
		slog.String("commit", commit),
		slog.String("addr", ln.Addr().String()),
		slog.Duration("ttl", *ttl),
		slog.Int("max_sessions", *maxSessions),
		slog.String("data_dir", *dataDir),
		slog.Int("shards", svc.Shards()),
		slog.Bool("auth", *auth),
		slog.Bool("events", *eventsOn),
	)

	var dsrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("debug listen: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics/prometheus", svc.PrometheusHandler())
		if tracer != nil {
			h := tracer.Handler()
			dmux.Handle("/debug/traces", h)
			dmux.Handle("/debug/traces/", h)
		}
		dsrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go dsrv.Serve(dln)
		defer dsrv.Close()
		logger.Info("debug listener up", slog.String("addr", dln.Addr().String()))
	}

	if *dataDir != "" {
		start := time.Now()
		datasets, sessions, err := svc.Recover()
		if err != nil {
			srv.Close()
			return fmt.Errorf("recovering from %s: %w", *dataDir, err)
		}
		logger.Info("recovered",
			slog.Int("datasets", datasets),
			slog.Int("sessions", sessions),
			slog.String("data_dir", *dataDir),
			slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)),
			slog.Int("recovery_shards", svc.Shards()),
		)
	}
	svc.MarkReady()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// Release held connections first — SSE streams get a "close" event,
	// long polls answer immediately — so Shutdown's listener drain only
	// waits on genuinely in-flight work, not 60-second holds.
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
