// Command vitexd is the streaming XPath subscription daemon: the ViteX
// paper's publish/subscribe deployment as a network service. Clients
// register standing XPath subscriptions against named channels, publishers
// POST XML documents, and matches stream back incrementally as NDJSON —
// one live QuerySet per channel, so subscription churn compiles only the
// changed query and every document is parsed exactly once per channel.
//
// Usage:
//
//	vitexd [-addr :8344] [-workers N] [-queue 64] [-ring 256]
//	       [-policy block|drop] [-drain 15s]
//	       [-data DIR] [-wal-segment-bytes 8388608] [-wal-retain 8] [-wal-sync]
//	       [-trace-sample N] [-trace-ring 256] [-trace-file PATH]
//	       [-debug-addr HOST:PORT]
//
// Observability (see docs/observability.md): -trace-sample N stage-traces
// every Nth publish end to end (admission, WAL, queue wait, scan/dispatch,
// ring enqueue, deliver wait, wire write); finished traces are served
// newest-first by GET /debug/traces and, with -trace-file, appended as
// NDJSON. GET /metrics answers JSON by default and Prometheus text format
// under content negotiation (Accept: text/plain, or ?format=prometheus).
// -debug-addr starts a second listener with net/http/pprof — CPU and heap
// profiles plus runtime execution traces (/debug/pprof/trace?seconds=5) —
// kept off the service port so profiling exposure is an explicit opt-in.
//
// With -data the broker is durable: every accepted publish is appended to a
// per-channel write-ahead log before evaluation, channel definitions and
// standing subscriptions persist in per-channel manifests, and a restart on
// the same directory recovers them — document cursors continue from the log
// tail, and subscribers resume with `?from=CURSOR&seen=K` on the results
// route (no acknowledged document is lost; torn log tails from a crash are
// rolled back to the last complete record).
//
// The wire protocol (see the repository README, "Serving"):
//
//	POST   /channels/{ch}/subscriptions          XPath text -> {"id": ...}
//	PUT    /channels/{ch}/subscriptions/{id}     XPath text (replace in place)
//	DELETE /channels/{ch}/subscriptions/{id}
//	POST   /channels/{ch}/documents              XML body (?async=1 to queue)
//	GET    /channels/{ch}/subscriptions/{id}/results   NDJSON stream
//	GET    /metrics
//	GET    /healthz
//
// SIGINT/SIGTERM triggers a graceful drain: ingestion stops, queued
// documents finish evaluating, every proven result is delivered, result
// streams end with an "end" line — bounded by -drain, after which
// in-flight evaluations are canceled (subscribers see gap markers).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// Connection deadlines. A client has headerTimeout to send a request's
// headers, so a connection that trickles them (a slow-loris) is closed, and a
// keep-alive connection idle for idleTimeout is closed. There is deliberately
// no read or write timeout: a result stream is one response that lasts as
// long as its subscriber stays, and a publish body takes as long as its
// publisher does.
var headerTimeout, idleTimeout = 10 * time.Second, 2 * time.Minute

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "vitexd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is canceled, then drains.
// ready (when non-nil) receives the bound address once the server is
// listening — the hook the e2e tests and -addr :0 use.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("vitexd", flag.ContinueOnError)
	addr := fs.String("addr", ":8344", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "max concurrently-evaluating channels (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "per-channel ingest queue depth")
	ring := fs.Int("ring", 256, "per-subscription result buffer size")
	policy := fs.String("policy", "block", "slow-consumer policy: block (back-pressure) or drop (gap markers)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain budget; a document blocked on a full ring that nobody reads waits all of it, then is canceled (its subscribers get a gap marker, then end)")
	dataDir := fs.String("data", "", "durable data directory (empty = memory-only, no WAL, no resume)")
	walSegBytes := fs.Int64("wal-segment-bytes", 8<<20, "write-ahead-log segment rotation size")
	walRetain := fs.Int("wal-retain", 8, "write-ahead-log segments retained per channel (bounds replay history)")
	walSync := fs.Bool("wal-sync", false, "fsync the write-ahead log after every publish")
	traceSample := fs.Int("trace-sample", 0, "stage-trace every Nth publish (0 = tracing off)")
	traceRing := fs.Int("trace-ring", 256, "finished stage-trace records kept for GET /debug/traces")
	traceFile := fs.String("trace-file", "", "append finished stage traces to this file as NDJSON")
	debugAddr := fs.String("debug-addr", "", "pprof/execution-trace listener (host:port; empty = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pol, err := server.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	var traceSink io.Writer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening trace file: %w", err)
		}
		defer f.Close()
		traceSink = f
	}

	cfg := server.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		RingSize:          *ring,
		Policy:            pol,
		DataDir:           *dataDir,
		WALSegmentBytes:   *walSegBytes,
		WALRetainSegments: *walRetain,
		WALSync:           *walSync,
		TraceSample:       *traceSample,
		TraceRing:         *traceRing,
		TraceSink:         traceSink,
	}
	var b *server.Broker
	if *dataDir != "" {
		if b, err = server.Open(cfg); err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		for name, cursor := range b.Recovered() {
			fmt.Fprintf(stdout, "vitexd recovered channel %q at cursor %d\n", name, cursor)
		}
	} else {
		b = server.New(cfg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.Handler(b), ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
	durability := "memory-only"
	if *dataDir != "" {
		durability = "data=" + *dataDir
	}
	fmt.Fprintf(stdout, "vitexd listening on %s (policy=%s workers=%d queue=%d ring=%d %s)\n",
		ln.Addr(), pol, b.Config().Workers, *queue, *ring, durability)
	if *traceSample > 0 {
		fmt.Fprintf(stdout, "vitexd tracing 1/%d publishes (ring %d)\n", *traceSample, *traceRing)
	}
	var debugSrv *http.Server
	if *debugAddr != "" {
		// Profiling stays off the service port: exposing pprof is an explicit
		// opt-in, and a scrape-heavy profiler cannot contend with the API
		// listener's accept queue.
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go func() { _ = debugSrv.Serve(dln) }()
		fmt.Fprintf(stdout, "vitexd debug listener on %s (pprof, execution trace)\n", dln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "vitexd draining (budget %s)...\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Broker first: admission stops, queues run dry, result streams end —
	// which is what lets the HTTP server's own Shutdown finish promptly.
	if err := b.Shutdown(dctx); err != nil {
		fmt.Fprintf(stdout, "vitexd: drain incomplete: %v\n", err)
	}
	// A fresh budget for the HTTP listener: with the broker drained its
	// handlers finish immediately, but don't let an expired drain context
	// turn the close into a hard connection reset.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	fmt.Fprintln(stdout, "vitexd stopped")
	return nil
}
