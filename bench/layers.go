package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	vitex "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/sax"
	"repro/internal/server"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// runTraced produces the per-layer metrics. It sets the workload up once,
// runs the timed loop untraced and then traced (the difference is the
// tracing overhead) and once more under the heap sampler, and then probes
// each layer from outside over the same
// pool and standing set: plain timed calls into public functions, and
// differences between runs that leave one layer out.
func runTraced(w *workload, cfg config, rec *record, out io.Writer) error {
	f, err := setUp(w, cfg.seed, cfg.scale, cfg.out)
	if err != nil {
		return err
	}
	defer f.close()
	m := make(map[string]float64)
	slice := time.Duration(cfg.seconds / 5 * float64(time.Second))
	plain := f.run(limit{dur: slice}, false)
	traced := f.run(limit{dur: slice}, true)
	heap := sampleHeap()
	sampled := f.run(limit{dur: slice / 2}, false)
	m["vitex.peak_live_heap_mb"] = heap.stop()
	if len(plain.docs) == 0 || len(traced.docs) == 0 {
		return fmt.Errorf("%s: traced run verified no document", w.name)
	}

	m["trace.overhead_share"] = median(traced.latenciesUs())/median(plain.latenciesUs()) - 1
	rootNs, selfNs := int64(0), int64(0)
	for i, self := range selfTimes(traced.spans) {
		if s := traced.spans[i]; s.Parent < 0 {
			rootNs += s.End - s.Start
			selfNs += self
		}
	}
	m["trace.unattributed_share"] = float64(selfNs) / float64(max(rootNs, 1))
	m["gen.offered_docs_per_s"] = traced.offered
	m["gen.lateness_p99_ms"], _ = quantileOf(traced.latenessMs, 0.99)
	m["gen.backlog_max_docs"] = float64(traced.backlogMax)
	m["server.queue_full_rejects"] = float64(plain.rejects + traced.rejects)
	if f.srv != nil {
		m["server.gaps"], m["server.dropped"] = float64(f.srv.gaps.Load()), float64(f.srv.dropped.Load())
	}
	if err := writeSpans(filepath.Join(cfg.out, "trace_"+w.name+".ndjson"), traced.spans); err != nil {
		return err
	}

	budget := time.Duration(cfg.seconds / 40 * float64(time.Second))
	if err := f.probeLibrary(m, budget); err != nil {
		return err
	}
	if err := f.probeServer(m, budget, cfg.out); err != nil {
		return err
	}

	rec.Docs, rec.OfferedRate = len(traced.docs), traced.offered
	rec.Result = result{
		Attempted: plain.attempted + traced.attempted + sampled.attempted,
		Failed:    plain.failed + traced.failed + sampled.failed,
		Metrics:   make(map[string]metricValue),
	}
	fmt.Fprintf(out, "%s (traced): %d documents verified, %d failed of %d attempted\n",
		w.name, len(plain.docs)+len(traced.docs), rec.Result.Failed, rec.Result.Attempted)
	for _, d := range perLayerMetrics {
		v, ok := m[d.Name]
		if !ok {
			return fmt.Errorf("%s: layer metric %s was not measured", w.name, d.Name)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", d.Name, v, d.Unit)
		rec.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

// heapSampler tracks the live heap: every 100 ms it forces a collection and
// reads what survived. Too intrusive for an end-to-end run; traced only.
type heapSampler struct {
	quit chan struct{}
	peak chan float64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), peak: make(chan float64)}
	go func() {
		var m runtime.MemStats
		peak := 0.0
		for {
			runtime.GC()
			runtime.ReadMemStats(&m)
			peak = max(peak, float64(m.HeapAlloc)/(1<<20))
			select {
			case <-h.quit:
				h.peak <- peak
				return
			case <-time.After(100 * time.Millisecond):
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.peak
}

// timePasses times alternatives over the pool: each round runs every fn over
// every pool document, one fn after another, so that the host's drift falls
// on all of them alike and their differences stay meaningful. The first
// round warms and is not timed; rounds go on until the budget is spent. It
// returns each fn's mean time per document.
func (f *fixture) timePasses(budget time.Duration, fns ...func(d *poolDoc) error) ([]time.Duration, error) {
	spent := make([]time.Duration, len(fns))
	rounds := 0
	for total := time.Duration(0); rounds < 2 || total < budget; rounds++ {
		for k, fn := range fns {
			t := time.Now()
			for i := range f.pool {
				if err := fn(&f.pool[i]); err != nil {
					return nil, err
				}
			}
			if d := time.Since(t); rounds > 0 {
				spent[k] += d
				total += d
			}
		}
	}
	for k := range spent {
		spent[k] /= time.Duration((rounds - 1) * len(f.pool))
	}
	return spent, nil
}

// nullSink is the scanner with nothing behind it.
type nullSink struct{ events int64 }

func (n *nullSink) HandleEvent(*sax.Event) error { n.events++; return nil }

func (n *nullSink) HandleBatch(evs []sax.Event) error { n.events += int64(len(evs)); return nil }

// streamTimer returns a timePasses body that streams a document through set
// and checks the result count against the reference.
func (f *fixture) streamTimer(set *vitex.QuerySet, opts vitex.Options) func(d *poolDoc) error {
	var rd bytes.Reader
	n := 0
	emit := func(r vitex.SetResult) error {
		n++
		return nil
	}
	return func(d *poolDoc) error {
		n = 0
		rd.Reset(d.data)
		if _, err := set.Stream(&rd, opts, emit); err != nil {
			return err
		}
		if want, _ := d.ref.of(-1); n != want {
			return fmt.Errorf("%s: probe stream gave %d results, reference %d", f.w.name, n, want)
		}
		return nil
	}
}

// probeLibrary measures the in-library layers by differential ablation over
// the pool: scanner into a null sink, + engine (CountOnly), + values and emit
// (the workload's options). Each is a plain timed run.
func (f *fixture) probeLibrary(m map[string]float64, budget time.Duration) error {
	t := time.Now()
	for _, q := range f.queries {
		if _, err := xpath.ParseUnion(q); err != nil {
			return err
		}
	}
	m["xpath.parse_us_per_query"] = time.Since(t).Seconds() * 1e6 / float64(len(f.queries))
	set, build := f.set, f.buildTime
	if set == nil { // a served workload: the same standing set, in-library
		t = time.Now()
		var err error
		if set, err = vitex.NewQuerySet(f.queries...); err != nil {
			return err
		}
		build = time.Since(t)
	}
	m["engine.build_ms"] = build.Seconds() * 1e3

	// The three layers, each a plain timed run that adds one to the last:
	// the scanner alone; + trie and machines, no values (CountOnly); +
	// values, recorder and emit, as the workload runs it.
	var null nullSink
	var rd bytes.Reader
	sc := xmlscan.NewScanner(&rd)
	scanOnly := func(d *poolDoc) error {
		rd.Reset(d.data)
		sc.Reset(&rd)
		return sc.Run(&null)
	}
	countOnly := f.w.opts
	countOnly.CountOnly = true
	counted, stream := f.streamTimer(set, countOnly), f.streamTimer(set, f.w.opts)
	times, err := f.timePasses(budget, scanOnly)
	if err != nil {
		return err
	}
	scan := times[0] // alone: between passes of a large set it would run on emptied caches
	if times, err = f.timePasses(2*budget, counted, stream); err != nil {
		return err
	}
	count, full := times[0], times[1]

	poolBytes := 0
	null.events = 0
	for i := range f.pool {
		poolBytes += len(f.pool[i].data)
		if err := scanOnly(&f.pool[i]); err != nil {
			return err
		}
	}
	n := float64(len(f.pool))
	eventsPerDoc := float64(null.events) / n
	m["xmlscan.scan_ns_per_event"] = float64(scan) / eventsPerDoc
	m["xmlscan.scan_mb_per_s"] = float64(poolBytes) / n / 1e6 / scan.Seconds()
	m["xmlscan.events_per_doc"] = eventsPerDoc
	m["xmlscan.bytes_per_event"] = float64(poolBytes) / float64(null.events)
	m["xmlscan.share"] = float64(scan) / float64(full)
	m["engine.eval_ns_per_event"] = float64(count-scan) / eventsPerDoc

	// One more pass of each engine run, for exact counts: the engine's own
	// dispatch counters over the CountOnly pass, allocations over the full.
	before := set.Metrics()
	for i := range f.pool {
		if err := counted(&f.pool[i]); err != nil {
			return err
		}
	}
	after := set.Metrics()
	routed := float64(max(after.Events-before.Events, 1))
	m["engine.machines_woken_per_event"] = float64(after.Deliveries-before.Deliveries) / routed
	m["engine.trie_pushes_per_event"] = float64(after.TriePushes-before.TriePushes) / routed
	m["engine.trie_nodes"] = float64(after.TrieNodes)
	m["engine.anchored_machines"] = float64(after.AnchoredMachines)
	_, mallocs0 := memCounters()
	for i := range f.pool {
		if err := stream(&f.pool[i]); err != nil {
			return err
		}
	}
	_, mallocs1 := memCounters()
	m["engine.allocs_per_doc"] = float64(mallocs1-mallocs0) / n

	// One untimed pass collects what the results and statistics say.
	var results []vitex.SetResult
	var lags []float64
	valueBytes, events := 0, int64(0)
	var flagProps, created, dropped int64
	peakStack, peakCands, peakBuffered := 0, 0, 0
	for i := range f.pool {
		stats, err := set.Stream(bytes.NewReader(f.pool[i].data), f.w.opts, func(r vitex.SetResult) error {
			results = append(results, r)
			lags = append(lags, float64(r.DeliveredAt-r.ConfirmedAt))
			valueBytes += len(r.Value)
			return nil
		})
		if err != nil {
			return err
		}
		stack, cands, buffered := 0, 0, 0
		for _, s := range stats {
			flagProps += s.FlagProps
			created += s.CandidatesCreated
			dropped += s.CandidatesDropped
			stack += s.PeakStackEntries
			cands += s.PeakLiveCandidates
			buffered += s.PeakBufferedBytes
		}
		events += stats[0].Events
		peakStack, peakCands, peakBuffered = max(peakStack, stack), max(peakCands, cands), max(peakBuffered, buffered)
	}
	perDoc := float64(len(results)) / n
	m["twigm.peak_stack_entries"] = float64(peakStack)
	m["twigm.peak_live_candidates"] = float64(peakCands)
	m["twigm.peak_buffered_kb"] = float64(peakBuffered) / 1024
	m["twigm.flag_props_per_event"] = float64(flagProps) / float64(max(events, 1))
	m["twigm.candidates_dropped_share"] = float64(dropped) / float64(max(created, 1))
	m["twigm.deliver_lag_events_p99"], _ = quantileOf(lags, 0.99)
	m["vitex.emit_ns_per_result"] = float64(full-count) / perDoc
	m["vitex.value_bytes_per_result"] = float64(valueBytes) / float64(len(results))

	// The harness's own sink over the recorded results, to subtract.
	sk := sink{t0: time.Now()}
	rounds := 0
	for t = time.Now(); rounds == 0 || time.Since(t) < budget/4; rounds++ {
		sk.begin(len(results))
		for i := range results {
			r := &results[i]
			sk.add(resultHash(r.QueryIndex, r.Seq, r.NodeOffset, r.Value))
		}
	}
	m["vitex.callback_self_ns_per_result"] = float64(time.Since(t)) / float64(rounds*len(results))

	// Session reset: a document with nothing in it, through the whole set.
	empty := []byte("<a/>")
	resets := 0
	for t = time.Now(); resets < 2 || time.Since(t) < budget/2; resets++ {
		rd.Reset(empty)
		if _, err := set.Stream(&rd, f.w.opts, nil); err != nil {
			return err
		}
	}
	m["engine.reset_us_per_doc"] = time.Since(t).Seconds() * 1e6 / float64(resets)

	// Ablations of the engine's two mechanisms, on the CountOnly run.
	// Prefix sharing is ablated on the first 256 queries of the set: with
	// sharing off, a set of thousands takes seconds per document.
	head := f.queries[:min(len(f.queries), 256)]
	sharedChunk, err := vitex.NewQuerySet(head...)
	if err != nil {
		return err
	}
	unsharedChunk, err := vitex.NewQuerySetConfigured(vitex.SetConfig{DisablePrefixSharing: true}, head...)
	if err != nil {
		return err
	}
	countChunk := func(set *vitex.QuerySet) func(*poolDoc) error {
		return func(d *poolDoc) error {
			rd.Reset(d.data)
			_, err := set.Stream(&rd, countOnly, func(vitex.SetResult) error { return nil })
			return err
		}
	}
	if times, err = f.timePasses(budget, countChunk(sharedChunk), countChunk(unsharedChunk)); err != nil {
		return err
	}
	m["engine.sharing_speedup"] = float64(times[1]) / float64(times[0])
	parallel := countOnly
	parallel.Parallel = 2
	if times, err = f.timePasses(budget, counted, f.streamTimer(set, parallel)); err != nil {
		return err
	}
	m["engine.parallel2_speedup"] = float64(times[0]) / float64(times[1])

	// Churn: one subscription in, the same one out.
	q, err := vitex.Compile(churnQuery(0))
	if err != nil {
		return err
	}
	var adds, removes []float64
	for i := 0; i < 20; i++ {
		t = time.Now()
		at, err := set.Add(q)
		mid := time.Now()
		if err == nil {
			err = set.Remove(at)
		}
		if err != nil {
			return err
		}
		adds, removes = append(adds, mid.Sub(t).Seconds()*1e6), append(removes, time.Since(mid).Seconds()*1e6)
	}
	m["engine.add_us"], m["engine.remove_us"] = median(adds), median(removes)
	return nil
}

// lockedBuffer is the broker's trace sink.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) records() ([]obs.Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Record
	sc := bufio.NewScanner(&l.b)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r obs.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// probeSet is the standing set of the server probes: the live query plus up
// to 99 queries of the workload's set that match nothing in the pool. Only
// one consumer can be attached, and under the block policy a subscription
// with results and no consumer would stall the channel.
func (f *fixture) probeSet() (queries []string, live int) {
	if live = f.live; live < 0 {
		live = busiest(f.pool)
	}
	queries = []string{f.queries[live]}
	for q := range f.queries {
		silent := q != live
		for i := range f.pool {
			silent = silent && f.pool[i].ref.counts[q] == 0
		}
		if silent && len(queries) < 100 {
			queries = append(queries, f.queries[q])
		}
	}
	return queries, live
}

// probeServer measures the serving layers over the pool: a memory-only
// broker (HTTP and in-process publish, the broker's own stage trace), then a
// durable one (WAL, replay, resume, recovery), each with one consumer
// attached to the live subscription, closed loop.
func (f *fixture) probeServer(m map[string]float64, budget time.Duration, dir string) error {
	queries, live := f.probeSet()
	// A stream consumer cannot see a document on which the live query has
	// no result, so the probes publish the pool's other documents.
	probe := &fixture{w: f.w, queries: f.queries, live: live}
	for _, d := range f.pool {
		if d.ref.counts[live] > 0 {
			probe.pool = append(probe.pool, d)
		}
	}
	set, err := vitex.NewQuerySet(queries...)
	if err != nil {
		return err
	}
	results := 0.0
	for _, d := range probe.pool {
		results += float64(d.ref.counts[live]) / float64(len(probe.pool))
	}
	var rd bytes.Reader
	times, err := probe.timePasses(budget, func(d *poolDoc) error {
		rd.Reset(d.data)
		_, err := set.Stream(&rd, f.w.opts, func(vitex.SetResult) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	library := times[0]

	// Memory-only broker, untraced: what serving costs.
	memory := server.Config{RingSize: 1 << 14, Policy: server.PolicyBlock}
	s, err := startBroker(probe, memory, queries, 0, 0, 0)
	if err != nil {
		return err
	}
	s.rate = 0
	warm := s.run(limit{docs: len(probe.pool)}, false)
	overHTTP := s.run(limit{dur: 2 * budget}, false)
	s.inProcess = true
	inProcess := s.run(limit{dur: budget}, false)
	s.close()
	if failed := warm.failed + overHTTP.failed + inProcess.failed; failed > 0 || len(overHTTP.docs) == 0 || len(inProcess.docs) == 0 {
		return fmt.Errorf("%s: server probe: %d documents failed", f.w.name, failed)
	}
	httpDoc := mean(overHTTP.latenciesUs())
	m["server.overhead_us_per_result"] = (httpDoc - library.Seconds()*1e6) / results
	m["server.inproc_publish_us_per_doc"] = mean(inProcess.ackUs)
	m["server.http_ingest_us_per_doc"] = mean(overHTTP.ackUs) - mean(inProcess.ackUs)
	m["server.publish_ack_p50_us"] = median(overHTTP.ackUs)
	m["server.publish_ack_p99_us"], _ = quantileOf(overHTTP.ackUs, 0.99)
	m["server.gaps"] += float64(s.gaps.Load())
	m["server.dropped"] += float64(s.dropped.Load())

	// The same broker again with its stage trace on every publish: where
	// the time goes. A traced delivery is flushed on its own, so this
	// broker is slower than the one above and is read for shares only.
	var sink lockedBuffer
	memory.TraceSample, memory.TraceSink = 1, &sink
	if s, err = startBroker(probe, memory, queries, 0, 0, 0); err != nil {
		return err
	}
	s.rate = 0
	warm = s.run(limit{docs: len(probe.pool)}, false)
	staged := s.run(limit{dur: budget}, false)
	s.close()
	if failed := warm.failed + staged.failed; failed > 0 {
		return fmt.Errorf("%s: traced server probe: %d documents failed", f.w.name, failed)
	}
	stages, err := sink.records()
	if err != nil {
		return err
	}
	stageMeans(m, stages, false)

	if err := probeClient(m, set, probe.pool, f.w.opts, budget); err != nil {
		return err
	}
	return probeDurable(m, probe, queries, httpDoc, budget, dir)
}

// stageMeans turns a broker's trace records into per-document stage means.
// The memory-only broker gives every stage but the WAL's two and is the one
// the stage-sum share describes; the durable broker gives the WAL's two.
func stageMeans(m map[string]float64, recs []obs.Record, wal bool) {
	sums := make(map[string]float64)
	total, stageSum, deliveries := 0.0, 0.0, 0.0
	for _, r := range recs {
		for name, ns := range r.Stages {
			sums[name] += float64(ns)
		}
		total += float64(r.TotalNs)
		stageSum += float64(r.StageSumNs())
		deliveries += float64(r.Deliveries)
	}
	n := float64(max(len(recs), 1))
	if wal {
		m["server.wal_append_us_per_doc"] = sums["wal_append"] / n / 1e3
		m["server.wal_fsync_us_per_doc"] = sums["wal_fsync"] / n / 1e3
		return
	}
	for _, name := range []string{"admission", "queue_wait", "scan_dispatch", "ring_enqueue", "deliver_wait", "wire_write"} {
		m["server."+name+"_us_per_doc"] = sums[name] / n / 1e3
	}
	// deliver_wait is summed over a document's deliveries, which wait in
	// the ring side by side, so the stage sum can exceed the total.
	m["server.stage_sum_share"] = stageSum / max(total, 1)
	m["server.deliveries_per_doc"] = deliveries / n
}

// probeClient times the client alone: the live subscription's deliveries for
// the pool, encoded as the server encodes them, served from memory and read
// back through client.Results().Next().
func probeClient(m map[string]float64, set *vitex.QuerySet, pool []poolDoc, opts vitex.Options, budget time.Duration) error {
	var wire bytes.Buffer
	enc := json.NewEncoder(&wire)
	lines := 0
	for i := range pool {
		_, err := set.Stream(bytes.NewReader(pool[i].data), opts, func(r vitex.SetResult) error {
			if r.QueryIndex != 0 {
				return nil
			}
			lines++
			return enc.Encode(server.Delivery{
				Type: server.DeliveryResult, DocSeq: int64(i + 1), Seq: r.Seq, NodeOffset: r.NodeOffset,
				Value: r.Value, ConfirmedAt: r.ConfirmedAt, DeliveredAt: r.DeliveredAt,
			})
		})
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_, _ = w.Write(wire.Bytes())
	})}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed at Shutdown
	}()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-served
	}()
	cl := client.New("http://" + ln.Addr().String())
	decoded, t := 0, time.Now()
	for rounds := 0; rounds < 2 || time.Since(t) < budget; rounds++ {
		if rounds == 1 {
			decoded, t = 0, time.Now() // the first round warms the connection
		}
		stream, err := cl.Results(context.Background(), channelName, "probe")
		if err != nil {
			return err
		}
		n := 0
		for {
			if _, err := stream.Next(); err != nil {
				break // the recording has no end line: it ends as an interrupted stream
			}
			n++
		}
		stream.Close()
		if n != lines {
			return fmt.Errorf("client probe: decoded %d of %d deliveries", n, lines)
		}
		decoded += n
	}
	m["client.decode_us_per_result"] = time.Since(t).Seconds() * 1e6 / float64(decoded)
	return nil
}

// probeDurable measures what only a durable broker has. One broker with
// WALSync on runs three phases: a closed loop (the WAL's append and fsync
// stages), an open loop at a quarter of the measured capacity whose consumer
// severs and resumes (catch-up), and a late joiner replaying the newest
// documents of the log (replay rate). Then the broker is shut down and
// server.Open recovers its data directory.
func probeDurable(m map[string]float64, probe *fixture, queries []string, httpDocUs float64, budget time.Duration, dir string) error {
	dataDir, err := os.MkdirTemp(dir, "probe-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	var sink lockedBuffer
	cfg := server.Config{RingSize: 1 << 14, Policy: server.PolicyBlock, DataDir: dataDir, WALSync: true, TraceSample: 4, TraceSink: &sink}
	s, err := startBroker(probe, cfg, queries, 0, 8, 3)
	if err != nil {
		return err
	}
	s.keepData = true
	s.rate = 0
	warm := s.run(limit{docs: len(probe.pool)}, false)
	closed := s.run(limit{dur: budget}, false)
	if failed := warm.failed + closed.failed; failed > 0 || len(closed.docs) == 0 {
		s.close()
		return fmt.Errorf("%s: durable probe: %d documents failed", probe.w.name, failed)
	}
	s.rate = 0.25e6 / max(mean(closed.latenciesUs()), httpDocUs)
	open := s.run(limit{dur: 3 * budget}, false)
	if open.failed > 0 {
		s.close()
		return fmt.Errorf("%s: durable probe: %d of %d documents failed in the resume phase", probe.w.name, open.failed, open.attempted)
	}
	m["server.resume_catchup_p50_ms"] = median(open.catchupsMs)

	// Late joiner: a second subscription to the live query replays the
	// newest documents of the log.
	last := s.published.Load()
	from := max(1, last-15)
	wantResults := 0
	for d := from; d <= last; d++ {
		wantResults += probe.pool[int(d-1)%len(probe.pool)].ref.counts[probe.live]
	}
	sub, err := s.cl.Subscribe(s.ctx, channelName, queries[0])
	if err == nil {
		t := time.Now()
		var stream *client.ResultStream
		if stream, err = s.cl.ResultsFrom(s.ctx, channelName, sub.ID, from, 0); err == nil {
			for got := 0; got < wantResults && err == nil; {
				var d *server.Delivery
				if d, err = stream.Next(); err == nil && d.Type == server.DeliveryResult {
					got++
				} else if err == nil && d.Type != server.DeliveryResult {
					err = fmt.Errorf("replay delivered a %s marker", d.Type)
				}
			}
			m["server.replay_docs_per_s"] = float64(last-from+1) / time.Since(t).Seconds()
			stream.Close()
		}
	}
	if err != nil {
		s.close()
		return fmt.Errorf("%s: durable probe: replay: %w", probe.w.name, err)
	}
	wal := s.broker.Metrics().Channels[channelName].WAL
	m["server.wal_bytes_per_doc"] = float64(wal.Bytes) / float64(wal.LastCursor-wal.FirstCursor+1)
	m["server.wal_segments"] = float64(wal.Segments)
	m["server.gaps"] += float64(s.gaps.Load())
	m["server.dropped"] += float64(s.dropped.Load())
	s.close()
	recs, err := sink.records()
	if err != nil {
		return err
	}
	stageMeans(m, recs, true)

	cfg.TraceSample, cfg.TraceSink = 0, nil
	t := time.Now()
	b, err := server.Open(cfg)
	if err != nil {
		return fmt.Errorf("%s: durable probe: recover: %w", probe.w.name, err)
	}
	took := time.Since(t)
	recovered := b.Recovered()[channelName]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.Shutdown(ctx)
	if recovered != last {
		return fmt.Errorf("%s: durable probe: recovered cursor %d, published %d", probe.w.name, recovered, last)
	}
	m["server.recover_ms"] = took.Seconds() * 1e3
	m["server.recover_docs_per_s"] = float64(last) / took.Seconds()
	return nil
}
