// Command verlog-server serves a journaled verlog repository over HTTP
// (see package internal/server for the endpoints).
//
// Usage:
//
//	verlog-server -dir DIR [-addr :8487] [-init BASE.vlg]
//	              [-log text|json] [-slow-threshold 250ms]
//	              [-follow http://primary:8487] [-follower-id NAME]
//	              [-max-retention 65536]
//	              [-tenants-root DIR/tenants] [-max-open-tenants 64]
//	              [-allow-tenant-delete]
//	              [-ready-max-lag 1024] [-ready-max-lag-seconds 1m]
//	              [-debug-addr 127.0.0.1:8488]
//
// With -init the repository is created from the given object base first.
//
// The server is multi-tenant: -dir holds the "default" tenant, and every
// other tenant lives in its own directory under -tenants-root (default
// <dir>/tenants), created lazily on its first POST /v1/t/{name}/apply or
// /constraints. At most -max-open-tenants repositories are resident at a
// time; idle ones past the cap are cleanly closed (their directories
// kept) and reopened on demand. DELETE /v1/t/{name} is refused unless
// -allow-tenant-delete is given. Replication covers the default tenant
// only.
// With -follow the server runs as a replication follower of the primary
// at the given base URL: it pulls the primary's journal over
// /v1/repl/stream (bootstrapping from /v1/repl/snapshot when the
// directory is empty or too far behind), serves all read endpoints from
// its replicated head, and rejects writes with 403 read_only pointing at
// the primary. POST /v1/repl/promote turns it into the primary.
// Without -follow the server is a primary: it serves the replication
// stream and retains up to -max-retention journal records past the acks
// of its connected followers so they can resume without a snapshot
// transfer.
//
// Request logs are structured (log/slog); -log json emits one JSON object
// per request for log shippers. Requests slower than -slow-threshold land
// in the bounded in-memory slow log at GET /v1/debug/slow (0 records
// everything, a negative duration disables it). Prometheus metrics are at
// GET /metrics, an expvar mirror at GET /debug/vars.
//
// Health endpoints: GET /v1/healthz is liveness; GET /v1/readyz runs the
// named readiness checks (recovery, fencing, follower lag against
// -ready-max-lag / -ready-max-lag-seconds, tenant residency pressure)
// and answers 503 with the failing checks; GET /v1/status is the full
// node snapshot `verlog status` and `verlog top` render. With
// -debug-addr a side listener serves net/http/pprof, /metrics and
// /debug/vars — bind it to localhost or a management network.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/tenant"
)

func main() {
	dir := flag.String("dir", "", "repository directory (required)")
	addr := flag.String("addr", ":8487", "listen address")
	initBase := flag.String("init", "", "initialize the repository from this object base first")
	logFormat := flag.String("log", "text", "request log format: text or json")
	slowThreshold := flag.Duration("slow-threshold", server.DefaultSlowThreshold,
		"record requests at least this slow in /v1/debug/slow (0 = all, negative = off)")
	follow := flag.String("follow", "", "run as a replication follower of the primary at this base URL")
	followerID := flag.String("follower-id", "", "stable follower identity in the primary's ack table (default: random)")
	maxRetention := flag.Int("max-retention", replication.DefaultMaxRetention,
		"journal records retained past follower acks before they must re-bootstrap (negative = unbounded)")
	tenantsRoot := flag.String("tenants-root", "", "directory holding tenant repositories (default <dir>/tenants)")
	maxOpenTenants := flag.Int("max-open-tenants", 64, "resident tenant repositories before idle ones are evicted (0 = unbounded)")
	allowTenantDelete := flag.Bool("allow-tenant-delete", false, "enable DELETE /v1/t/{tenant}")
	readyMaxLag := flag.Int("ready-max-lag", server.DefaultReadyMaxLag,
		"journal seqs a follower may trail its primary before /v1/readyz reports 503 (0 = unbounded)")
	readyMaxLagAge := flag.Duration("ready-max-lag-seconds", server.DefaultReadyMaxAge,
		"age of a follower's last successful sync, while the stream is down, before /v1/readyz reports 503 (0 = unbounded)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof, /metrics and /debug/vars on this side address (e.g. 127.0.0.1:8488); off when empty")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "verlog-server: -dir is required")
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "verlog-server: -log must be text or json, got %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	if *initBase != "" {
		src, err := os.ReadFile(*initBase)
		if err != nil {
			fatal(logger, err)
		}
		ob, err := parser.ObjectBase(string(src), *initBase)
		if err != nil {
			fatal(logger, err)
		}
		if _, err := repository.Init(*dir, ob); err != nil {
			fatal(logger, err)
		}
		logger.Info("initialized repository", "dir", *dir, "facts", ob.Size())
	}
	repo, err := repository.Open(*dir)
	// A directory without a repository under -follow bootstraps from the
	// primary's snapshot, so a fresh follower needs no -init and no shared
	// disk; the first stream request resumes from the transferred seq.
	if *follow != "" && errors.Is(err, os.ErrNotExist) {
		logger.Info("bootstrapping follower from primary snapshot", "primary", *follow)
		snap, _, ferr := replication.FetchSnapshot(context.Background(), http.DefaultClient, *follow)
		if err = ferr; err == nil {
			repo, err = repository.InitAt(*dir, snap)
		}
		if err == nil {
			logger.Info("follower bootstrapped", "seq", snap.Seq, "facts", snap.Base.Size())
		}
	}
	if err != nil {
		fatal(logger, err)
	}
	// Start-up is a burst of garbage (the parsed -init base, snapshot and
	// journal buffers) beside a small live heap. Collect it here, so that the
	// heap goal the server starts serving under is set by what it holds, not
	// by what loading it took: requests allocate so little that the next
	// collection may be hundreds of requests away.
	runtime.GC()
	if rec := repo.Recovery(); rec.Clean() {
		logger.Info("opened repository", "dir", *dir, "entries", rec.Entries,
			"recovery_ms", rec.Duration.Milliseconds())
	} else {
		logger.Warn("opened repository after recovery", "dir", *dir, "detail", rec.String(),
			"recovery_ms", rec.Duration.Milliseconds())
	}

	node := replication.NewNode(repo, replication.Config{
		PrimaryURL:   *follow,
		FollowerID:   *followerID,
		MaxRetention: *maxRetention,
		Logger:       logger,
	})
	node.Start()
	if *follow != "" {
		logger.Info("following primary", "primary", *follow, "epoch", repo.Epoch())
	}

	root := *tenantsRoot
	if root == "" {
		root = filepath.Join(*dir, "tenants")
	}
	tenants := tenant.NewManager(root, tenant.WithMaxOpen(*maxOpenTenants))

	api := server.New(repo,
		server.WithLogger(logger),
		server.WithSlowThreshold(*slowThreshold),
		server.WithReplication(node),
		server.WithTenantManager(tenants),
		server.WithTenantDelete(*allowTenantDelete),
		server.WithReadyMaxLag(*readyMaxLag, *readyMaxLagAge),
	)
	// Mirror the metric registry into the process-global expvar namespace so
	// /debug/vars carries the counters alongside the runtime's memstats.
	server.PublishExpvar(api)

	// The debug side listener keeps profiling endpoints off the public
	// address: bind it to localhost (or a management network) and the
	// public -addr never exposes pprof.
	if *debugAddr != "" {
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux(api)); err != nil {
				logger.Error("debug listener", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute, // applies may evaluate for a while
		IdleTimeout:       2 * time.Minute,
	}
	// Graceful shutdown on SIGINT/SIGTERM: in-flight applies finish, the
	// journal stays consistent.
	idle := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logger.Info("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		close(idle)
	}()
	version, commit := obs.BuildInfo()
	logger.Info("serving", "dir", *dir, "addr", *addr, "slow_threshold", slowThreshold.String(),
		"version", version, "commit", commit, "go", runtime.Version())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, err)
	}
	<-idle
	node.Stop()
	// Quiesce every resident tenant repository; the default tenant's
	// journal needs no action (applies finished during Shutdown).
	tenants.Close()
}

// debugMux serves the profiling surface on the opt-in -debug-addr side
// listener: net/http/pprof plus the same /metrics and /debug/vars the
// main address serves, so a scraper confined to the management network
// needs only this port.
func debugMux(api *server.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", api.Registry().Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("fatal", "err", err)
	os.Exit(1)
}
