// Command pftkd is the throughput-prediction and simulation daemon: a
// stdlib-only HTTP JSON service over the PFTK model family (full,
// approximate, TD-only and Markov predictions) and the packet-level
// validation simulator, with a bounded job queue, a fixed worker pool,
// an exact LRU result cache and 429 load shedding.
//
// Examples:
//
//	pftkd -addr 127.0.0.1:8080
//	pftkd -addr 127.0.0.1:0 -addrfile /tmp/pftkd.addr -workers 8
//	pftkd -addr 127.0.0.1:8080 -listeners 4
//	curl -d '{"p":0.02,"rtt":0.2,"t0":2.0,"wm":12}' http://127.0.0.1:8080/v1/predict
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pftk/internal/cli"
	"pftk/internal/obs"
	"pftk/internal/serve"
	"pftk/internal/tracez"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fatal(err)
	}
}

// run starts the daemon and blocks until ctx is canceled (SIGINT/SIGTERM
// in production, a test context in tests), then shuts down gracefully:
// stop accepting connections, let in-flight handlers finish, drain the
// job queue.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pftkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		addrfile  = fs.String("addrfile", "", "write the bound address to this file (for scripts with -addr :0)")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = fs.Int("queue", 256, "job queue depth; a full queue sheds load with 429")
		cache     = fs.Int("cache", 4096, "result cache entries")
		maxBatch  = fs.Int("maxbatch", 1024, "maximum points per predict batch request")
		listeners = fs.Int("listeners", 1, "accept paths on -addr (SO_REUSEPORT where available, else a shard-by-hash accept loop)")
		debug     = fs.String("debugaddr", "", "serve expvar and pprof on this address (e.g. :0)")
		trace     = fs.Bool("trace", true, "record request spans and serve /debug/tracez")
		tracecap  = fs.Int("tracecap", 4096, "spans retained across the trace ring")
		accessLog = fs.String("accesslog", "", "write one access-log line per request to this file (\"-\" = stderr)")
		version   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := cli.NewWriter(stdout)
	if *version {
		w.Printf("pftkd %s\n", obs.BuildVersion())
		return w.Err()
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be positive (or 0 for GOMAXPROCS), got %d", *workers)
	}
	if *queue < 1 {
		return fmt.Errorf("-queue must be positive, got %d", *queue)
	}
	if *cache < 1 {
		return fmt.Errorf("-cache must be positive, got %d", *cache)
	}
	if *maxBatch < 1 {
		return fmt.Errorf("-maxbatch must be positive, got %d", *maxBatch)
	}
	if *listeners < 1 {
		return fmt.Errorf("-listeners must be positive, got %d", *listeners)
	}

	if *tracecap < 1 {
		return fmt.Errorf("-tracecap must be positive, got %d", *tracecap)
	}

	reg := obs.New()
	var tracer *tracez.Tracer
	if *trace {
		// 8 shards spread commit contention across handler goroutines;
		// the cap is the total spans retained.
		tracer = tracez.New(tracez.Options{Shards: 8, PerShard: (*tracecap + 7) / 8})
	}
	var logw io.Writer
	switch *accessLog {
	case "":
	case "-":
		logw = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		// Error at close is uninteresting: the log is append-only and the
		// process is exiting.
		defer func() { _ = f.Close() }()
		logw = f
	}
	if *debug != "" {
		dbgAddr, err := obs.ServeDebug(*debug, reg,
			obs.Mount{Pattern: "/debug/tracez", Handler: tracer.Handler()})
		if err != nil {
			return err
		}
		_, _ = fmt.Fprintf(stderr, "debug server on http://%s/debug/\n", dbgAddr)
	}

	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxBatch:     *maxBatch,
		Registry:     reg,
		Tracer:       tracer,
		AccessLog:    logw,
	})
	lns, lmode, err := listenAll(*addr, *listeners)
	if err != nil {
		return err
	}
	bound := lns[0].Addr().String()
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(bound), 0o644); err != nil {
			closeAll(lns)
			return err
		}
	}
	w.Printf("pftkd %s listening on http://%s\n", obs.BuildVersion(), bound)
	if len(lns) > 1 {
		w.Printf("  %d listeners (%s)\n", len(lns), lmode)
	}
	if err := w.Err(); err != nil {
		closeAll(lns)
		return err
	}

	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, len(lns))
	for _, ln := range lns {
		go func(l net.Listener) { errc <- hs.Serve(l) }(ln)
	}

	select {
	case err := <-errc:
		// Serve never returns nil; any return before shutdown is fatal.
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	for range lns {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	// With the listener closed and handlers done, drain the job queue so
	// every accepted simulation reaches a terminal state.
	srv.Close()
	w.Printf("pftkd drained and stopped\n")
	return w.Err()
}

func fatal(err error) {
	_, _ = fmt.Fprintln(os.Stderr, "pftkd:", err)
	os.Exit(1)
}
