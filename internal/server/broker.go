// Package server is the serving subsystem of the reproduction: a
// multi-tenant streaming subscription broker over the live query engine —
// the publish/subscribe deployment the ViteX paper motivates (ICDE 2005 §1:
// many standing XPath subscriptions, arriving XML streams, matches pushed
// incrementally).
//
// A Broker manages named channels. Each channel owns a live
// vitex.QuerySet: subscribing compiles exactly one query into the shared
// dispatch set (never a recompile of the standing set, and the bookkeeping
// around it copies only the table chunks it touches), publishing appends the
// document to a bounded per-channel ingest queue, and matches stream back
// to each subscriber through a bounded ring with an explicit slow-consumer
// policy — block (back-pressure) or drop (gap markers). Channels evaluate
// documents strictly in arrival order; a worker-pool semaphore bounds how
// many channels evaluate at once: cross-document parallelism across
// channels. Each document is evaluated serially.
//
// Every evaluation runs under a context tied to the broker's lifetime and
// — for synchronous publishes — the publisher's request, so a disconnected
// publisher or a shutdown deadline aborts mid-document promptly, the
// publisher gets a structured error, and subscribers get a gap marker
// rather than a silent stall.
//
// The HTTP layer over this API lives in http.go; cmd/vitexd is the daemon.
package server

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Config sizes a Broker. The zero value gets sensible defaults.
type Config struct {
	// Workers bounds how many channel evaluations run simultaneously
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth is each channel's ingest-queue capacity (default 64).
	// A full queue rejects publishes with ErrQueueFull.
	QueueDepth int
	// RingSize is how many deliveries a subscription's result ring may hold
	// (default 256): the threshold at which Policy applies. A ring holds only
	// what is queued, growing to at most RingSize entries, so an idle
	// subscription costs the same whatever RingSize is.
	RingSize int
	// Policy is the slow-consumer policy applied when a ring is full
	// (default PolicyBlock).
	Policy Policy
	// DataDir, when non-empty, makes the broker durable: every accepted
	// publish is appended to a per-channel write-ahead log before it is
	// acknowledged, channel definitions and standing subscriptions persist
	// in per-channel manifests, and Open recovers all of it after a
	// restart. Empty keeps the PR 4 behavior: everything in memory.
	DataDir string
	// WALSegmentBytes rotates a channel's active WAL segment once it
	// exceeds this size (default 8 MiB).
	WALSegmentBytes int64
	// WALRetainSegments bounds how many sealed segments a channel keeps
	// (default 8; minimum 2). Replays older than the oldest retained
	// cursor receive a gap marker carrying the unavailable range.
	WALRetainSegments int
	// WALSync fsyncs after every append. Off by default: the WAL then
	// survives process crashes (the records are in the page cache) but not
	// host power loss.
	WALSync bool

	// TraceSample, when positive, stage-traces every TraceSample-th
	// publish: admission, WAL append/fsync, queue wait, scan+dispatch,
	// ring enqueue, deliver wait and wire write each get a nanosecond
	// share, and the finished records are kept in an in-memory ring
	// (served by GET /debug/traces). 0 disables tracing: the publish path
	// then carries a nil trace whose methods no-op without allocating.
	TraceSample int
	// TraceRing bounds the in-memory buffer of finished trace records
	// (default 256).
	TraceRing int
	// TraceSink, when non-nil, additionally receives every finished trace
	// as one NDJSON line (an operator's file sink).
	TraceSink io.Writer
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.WALSegmentBytes <= 0 {
		cfg.WALSegmentBytes = 8 << 20
	}
	if cfg.WALRetainSegments <= 0 {
		cfg.WALRetainSegments = 8
	}
	return cfg
}

// Broker is the multi-tenant subscription broker. All methods are safe for
// concurrent use.
type Broker struct {
	cfg Config

	mu       sync.Mutex
	channels map[string]*channel
	closed   bool

	// evalCtx bounds every evaluation's lifetime; Shutdown cancels it when
	// the drain deadline passes.
	evalCtx    context.Context
	evalCancel context.CancelFunc

	// sem is the worker pool: one slot per concurrently-evaluating channel.
	sem chan struct{}

	// draining counts channels removed by DeleteChannel whose queues are
	// still running dry; Shutdown waits for them like any other channel.
	draining sync.WaitGroup

	// tracer samples publishes for stage tracing (nil when disabled; a
	// nil tracer hands out nil traces, keeping the path allocation-free).
	tracer *obs.Tracer
}

// Tracer returns the broker's stage-trace sampler (nil when tracing is
// disabled).
func (b *Broker) Tracer() *obs.Tracer { return b.tracer }

// New builds a broker; channels are created on first use. For a durable
// configuration (Config.DataDir set) use Open, which also recovers the
// channels a previous process left behind — New on a durable config starts
// serving without recovery and is almost never what a daemon wants.
func New(cfg Config) *Broker {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Broker{
		cfg:        cfg,
		channels:   make(map[string]*channel),
		evalCtx:    ctx,
		evalCancel: cancel,
		sem:        make(chan struct{}, cfg.Workers),
		tracer:     obs.NewTracer(cfg.TraceSample, cfg.TraceRing, cfg.TraceSink),
	}
}

// Open builds a broker and, when cfg.DataDir is set, recovers every durable
// channel from disk: the manifest rebuilds the channel's standing
// subscriptions (same ids, compiled into a fresh live QuerySet) and the WAL
// tail — rolled back past any torn or corrupt final record — restores the
// document cursor, so publishes resume exactly where the previous process
// stopped acknowledging. Recovery is all-or-nothing per boot: an unreadable
// manifest fails Open rather than silently dropping a channel.
func Open(cfg Config) (*Broker, error) {
	b := New(cfg)
	if b.cfg.DataDir == "" {
		return b, nil
	}
	root := channelsDir(b.cfg.DataDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, manifestName)); os.IsNotExist(err) {
			continue // not a channel directory (nothing durable was written)
		}
		m, err := loadManifest(dir)
		if err != nil {
			return nil, err
		}
		c, err := recoverChannel(b, m)
		if err != nil {
			return nil, err
		}
		b.channels[m.Name] = c
	}
	return b, nil
}

// Recovered reports the channels restored from the data directory at Open,
// with the cursor each resumed from.
func (b *Broker) Recovered() map[string]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int64)
	for name, c := range b.channels {
		if c.recoveredCursor > 0 {
			out[name] = c.recoveredCursor
		}
	}
	return out
}

// Config returns the broker's effective (defaulted) configuration.
func (b *Broker) Config() Config { return b.cfg }

// channelFor returns the named channel, creating it when create is set.
func (b *Broker) channelFor(name string, create bool) (*channel, error) {
	if name == "" {
		return nil, fmt.Errorf("server: empty channel name")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.channels[name]
	if c == nil {
		if !create {
			return nil, ErrNoChannel
		}
		// Lookups of existing channels stay valid during shutdown (so
		// attached consumers drain and unsubscribes settle); only new
		// channels — i.e. new work — are refused.
		if b.closed {
			return nil, ErrShutdown
		}
		var err error
		if c, err = newChannel(name, b); err != nil {
			return nil, err
		}
		b.channels[name] = c
	}
	return c, nil
}

// jobContext derives one evaluation's context: the broker's lifetime, plus
// — for synchronous publishes — the publisher's request, so either ends the
// evaluation. The returned cancel must be called once the job is settled
// (it is a no-op release for async jobs).
func (b *Broker) jobContext(req context.Context, wait bool) (context.Context, context.CancelFunc) {
	if !wait || req == nil {
		return b.evalCtx, func() {}
	}
	ctx, cancel := context.WithCancel(b.evalCtx)
	stop := context.AfterFunc(req, cancel)
	return ctx, func() { stop(); cancel() }
}

// Subscribe registers query (XPath text) on the channel, creating the
// channel on first use, and returns the subscription id.
func (b *Broker) Subscribe(channelName, query string) (*SubscribeResponse, error) {
	c, err := b.channelFor(channelName, true)
	if err != nil {
		return nil, err
	}
	sub, err := c.subscribe(query)
	if err != nil {
		return nil, err
	}
	// Respond from the inputs: sub.query is mutable under the channel lock
	// (Replace rewrites it) and must not be re-read here.
	return &SubscribeResponse{Channel: channelName, ID: sub.id, Query: query}, nil
}

// Unsubscribe removes the subscription and ends its result stream.
func (b *Broker) Unsubscribe(channelName, id string) error {
	c, err := b.channelFor(channelName, false)
	if err != nil {
		return err
	}
	return c.unsubscribe(id)
}

// Replace swaps the subscription's query in place (same id, same result
// stream); only the new query is compiled.
func (b *Broker) Replace(channelName, id, query string) (*SubscribeResponse, error) {
	c, err := b.channelFor(channelName, false)
	if err != nil {
		return nil, err
	}
	sub, err := c.replace(id, query)
	if err != nil {
		return nil, err
	}
	return &SubscribeResponse{Channel: channelName, ID: sub.id, Query: query}, nil
}

// Publish ingests a document body into the channel (created on first use).
// wait=true evaluates synchronously and reports the outcome; wait=false
// returns once the document is queued.
func (b *Broker) Publish(ctx context.Context, channelName string, data []byte, wait bool) (*PublishResponse, error) {
	c, err := b.channelFor(channelName, true)
	if err != nil {
		return nil, err
	}
	return c.publish(ctx, data, wait)
}

// DeleteChannel removes a channel entirely: ingestion stops, queued
// documents still evaluate (the drain is asynchronous), every subscription
// stream ends, and the name becomes available for re-creation (doc numbers
// restart). Channels otherwise live for the broker's lifetime — deletion is
// the operator's lever against unbounded channel growth.
func (b *Broker) DeleteChannel(name string) error {
	b.mu.Lock()
	c := b.channels[name]
	if c == nil {
		b.mu.Unlock()
		return ErrNoChannel
	}
	delete(b.channels, name)
	b.draining.Add(1)
	b.mu.Unlock()
	c.closeIngest()
	go func() {
		defer b.draining.Done()
		c.wg.Wait() // queued documents finish before streams end
		c.closeRings()
		// A deleted channel's durable state goes with it: the name becomes
		// available for re-creation with a fresh cursor space.
		if c.wal != nil {
			c.wal.close()
			os.RemoveAll(c.dir)
		}
	}()
	return nil
}

// Subscription returns the channel's subscription by id (nil when absent).
func (b *Broker) subscription(channelName, id string) (*subscription, error) {
	c, err := b.channelFor(channelName, false)
	if err != nil {
		return nil, err
	}
	sub := c.subscriptionByID(id)
	if sub == nil {
		return nil, ErrNoSubscription
	}
	return sub, nil
}

// Metrics snapshots the broker: per-channel counters plus totals.
func (b *Broker) Metrics() *MetricsResponse {
	b.mu.Lock()
	chans := make(map[string]*channel, len(b.channels))
	for name, c := range b.channels {
		chans[name] = c
	}
	b.mu.Unlock()
	m := &MetricsResponse{Channels: make(map[string]ChannelMetrics, len(chans))}
	var ack, deliver, first obs.Snapshot
	for name, c := range chans {
		cm := c.metrics()
		m.Channels[name] = cm
		m.Totals.DocsIn += cm.DocsIn
		m.Totals.Results += cm.Results
		m.Totals.Gaps += cm.Gaps
		if cm.WAL != nil {
			m.Totals.WALBytes += cm.WAL.Bytes
			m.Totals.WALSegments += cm.WAL.Segments
			m.Totals.ReplayDocs += cm.WAL.ReplayDocs
			m.Totals.ReplayResults += cm.WAL.ReplayResults
		}
		ack.Merge(c.pubAck.Snapshot())
		deliver.Merge(c.pubDeliver.Snapshot())
		first.Merge(c.pubFirst.Snapshot())
	}
	if len(chans) > 0 {
		m.Totals.Latency = &LatencyMetrics{
			PublishToAck:           ack.Stats(),
			PublishToDelivery:      deliver.Stats(),
			PublishToFirstDelivery: first.Stats(),
		}
	}
	m.Totals.Channels = len(chans)
	m.Config.Workers = b.cfg.Workers
	m.Config.QueueDepth = b.cfg.QueueDepth
	m.Config.RingSize = b.cfg.RingSize
	m.Config.Policy = b.cfg.Policy.String()
	m.Config.Durable = b.cfg.DataDir != ""
	return m
}

// Shutdown drains the broker gracefully: admission stops (new subscribes
// and publishes fail with ErrShutdown), every channel's queue runs dry —
// delivering all proven results, with block-policy back-pressure honored —
// and then every subscription stream ends. If ctx expires first, in-flight
// evaluations are canceled: publishers see ctx errors, subscribers see gap
// markers, and Shutdown returns ctx.Err() after the (now prompt) drain.
//
// A document parked on a block-policy ring that no consumer reads is not
// canceled early: the drain waits for it for the whole of ctx's budget, since
// a consumer may still attach, and only then cancels it like any other
// in-flight evaluation, with a structured error to its publisher and a gap
// marker for the document before the stream's end.
// TestShutdownDeadlineCancelsInFlight pins that path.
//
// Shutdown is idempotent.
func (b *Broker) Shutdown(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	chans := make([]*channel, 0, len(b.channels))
	for _, c := range b.channels {
		chans = append(chans, c)
	}
	b.mu.Unlock()

	for _, c := range chans {
		c.closeIngest()
	}
	drained := make(chan struct{})
	go func() {
		for _, c := range chans {
			c.wg.Wait()
		}
		// Channels removed by DeleteChannel drain on their own goroutines;
		// their queued documents get the same graceful treatment.
		b.draining.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		b.evalCancel()
		<-drained
	}
	b.evalCancel()
	for _, c := range chans {
		c.closeRings()
		if c.wal != nil {
			c.wal.close()
		}
	}
	return err
}
