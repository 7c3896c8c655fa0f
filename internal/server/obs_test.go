package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/obs"
	"repro/internal/server"
)

// traceDoc builds a document whose single match sits at the very end: the
// traced delivery's ring push happens in the evaluation's final moments, so
// deliver_wait barely overlaps scan_dispatch and the stage sum should
// reconstruct the trace's own end-to-end latency.
func traceDoc(filler int) string {
	var sb strings.Builder
	sb.WriteString("<feed>")
	for i := 0; i < filler; i++ {
		fmt.Fprintf(&sb, "<trade><symbol>WIDG</symbol><price>%d</price></trade>", i)
	}
	sb.WriteString("<trade><symbol>ACME</symbol><price>42</price></trade></feed>")
	return sb.String()
}

// drainInBackground consumes a result stream until stopped or the stream ends,
// so traced deliveries reach the wire (which is what completes a trace).
func drainInBackground(t *testing.T, cl *client.Client, channel, id string) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stream, err := cl.Results(ctx, channel, id)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer stream.Close()
		for {
			if _, err := stream.Next(); err != nil {
				return
			}
		}
	}()
	return func() { cancel(); <-done }
}

// TestTraceStageAccounting pins the tentpole's core claim: the per-stage
// nanosecond shares of a sampled publish reconstruct the observed
// publish-to-delivery latency. Every publish is traced (sample 1), the one
// match sits at the document's end, and at least one trace's stage sum must
// land within 10% of that trace's own total.
func TestTraceStageAccounting(t *testing.T) {
	cl, b, _ := startServer(t, server.Config{
		DataDir:     t.TempDir(),
		TraceSample: 1,
	})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "traced", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stop := drainInBackground(t, cl, "traced", sub.ID)
	defer stop()

	const docs = 8
	doc := traceDoc(3000)
	for i := 0; i < docs; i++ {
		if _, err := cl.Publish(ctx, "traced", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}

	// Traces finish at the consumer's wire write, asynchronously to the
	// publish acknowledgment; wait for all of them.
	deadline := time.Now().Add(10 * time.Second)
	for b.Tracer().Emitted() < docs && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	recs := b.Tracer().Recent()
	if len(recs) < docs {
		t.Fatalf("emitted %d traces, want %d", len(recs), docs)
	}

	wantStages := []string{"admission", "wal_append", "queue_wait", "scan_dispatch", "ring_enqueue", "deliver_wait", "wire_write"}
	bestGap := 1.0
	for _, rec := range recs {
		if rec.Channel != "traced" || rec.DocSeq == 0 {
			t.Fatalf("trace identity = %+v", rec)
		}
		if rec.Deliveries != 1 || rec.Events == 0 {
			t.Fatalf("trace accounting = %+v, want 1 delivery and >0 events", rec)
		}
		for _, s := range wantStages {
			if rec.Stages[s] <= 0 {
				t.Fatalf("trace missing stage %q: %+v", s, rec.Stages)
			}
		}
		if rec.TotalNs <= 0 {
			t.Fatalf("trace total = %d", rec.TotalNs)
		}
		gap := float64(rec.StageSumNs()-rec.TotalNs) / float64(rec.TotalNs)
		if gap < 0 {
			gap = -gap
		}
		if gap < bestGap {
			bestGap = gap
		}
	}
	if bestGap > 0.10 {
		t.Fatalf("no trace's stage sum within 10%% of its total (best %.1f%%); records: %+v", bestGap*100, recs)
	}
}

// collectDeliveries publishes docs against a fresh broker and returns every
// result-stream line marshaled back to JSON, in order.
func collectDeliveries(t *testing.T, cfg server.Config, docs []string) ([]string, []server.PublishResponse) {
	t.Helper()
	cl, _, _ := startServer(t, cfg)
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "eq", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "eq", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var pubs []server.PublishResponse
	for _, doc := range docs {
		resp, err := cl.Publish(ctx, "eq", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, *resp)
	}
	if err := cl.Unsubscribe(ctx, "eq", sub.ID); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		d, err := stream.Next()
		if err == io.EOF {
			return lines, pubs
		}
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
}

// TestTracedDeliveryEquivalence pins the observability layer's first
// invariant: tracing every publish changes nothing a client can see — the
// delivery stream and the publish responses are byte-identical to an
// untraced broker's.
func TestTracedDeliveryEquivalence(t *testing.T) {
	docs := []string{traceDoc(50), httpFeed, traceDoc(10)}
	plain, plainPubs := collectDeliveries(t, server.Config{}, docs)
	traced, tracedPubs := collectDeliveries(t, server.Config{TraceSample: 1}, docs)
	if len(plain) != len(traced) {
		t.Fatalf("delivery counts differ: untraced %d, traced %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("delivery %d differs:\nuntraced: %s\ntraced:   %s", i, plain[i], traced[i])
		}
	}
	for i := range plainPubs {
		if plainPubs[i] != tracedPubs[i] {
			t.Fatalf("publish response %d differs: %+v vs %+v", i, plainPubs[i], tracedPubs[i])
		}
	}
}

// TestMetricsContentNegotiation pins the /metrics contract: JSON by default
// (with an explicit content type, deterministically encoded), Prometheus
// text format under ?format= or an Accept header that puts text first.
func TestMetricsContentNegotiation(t *testing.T) {
	cl, _, base := startServer(t, server.Config{})
	ctx := context.Background()
	if _, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// Default and bare-curl shapes stay JSON — the serve-e2e scrape greps
	// the JSON body from an Accept-less request.
	body, ctype := get("/metrics", "")
	if ctype != "application/json; charset=utf-8" {
		t.Fatalf("default content type = %q", ctype)
	}
	if !strings.Contains(body, `"docs_in":`) {
		t.Fatalf("default body not the JSON view: %s", body)
	}
	if again, _ := get("/metrics", "*/*"); again != body {
		t.Fatalf("JSON /metrics not deterministic across identical scrapes:\n%s\n---\n%s", body, again)
	}

	promBody, promType := get("/metrics?format=prometheus", "")
	if promType != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("prometheus content type = %q", promType)
	}
	if !strings.Contains(promBody, "# TYPE vitex_channel_docs_in_total counter") {
		t.Fatalf("prometheus body missing TYPE header:\n%s", promBody)
	}
	if accBody, accType := get("/metrics", "text/plain, application/json;q=0.5"); accType != promType || !strings.Contains(accBody, "vitex_channel_docs_in_total") {
		t.Fatalf("Accept: text/plain did not negotiate prometheus (type %q)", accType)
	}
	if _, jsonType := get("/metrics", "application/json, text/plain"); jsonType != "application/json; charset=utf-8" {
		t.Fatalf("Accept preferring JSON got %q", jsonType)
	}
}

// TestPrometheusExposition publishes traffic through a durable broker and
// checks the scrape: every pre-existing counter family present with the
// right value, histograms with cumulative buckets, sums and counts, WAL
// families only for durable channels.
func TestPrometheusExposition(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{DataDir: t.TempDir(), Policy: server.PolicyBlock})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stop := drainInBackground(t, cl, "ticker", sub.ID)
	defer stop()
	// Two equality subscriptions on one element: one value group.
	for _, q := range []string{"//trade/symbol[. = 'ACME']", "//trade/symbol[. = 'WIDG']"} {
		keyed, err := cl.Subscribe(ctx, "ticker", q)
		if err != nil {
			t.Fatal(err)
		}
		stop := drainInBackground(t, cl, "ticker", keyed.ID)
		defer stop()
	}
	const docs = 3
	for i := 0; i < docs; i++ {
		if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
			t.Fatal(err)
		}
	}

	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparsable exposition line %q", line)
		}
		series[name] = value
	}

	label := `{channel="ticker"}`
	for name, want := range map[string]string{
		"vitex_broker_channels":                      "1",
		"vitex_channel_subscriptions" + label:        "3",
		"vitex_channel_docs_in_total" + label:        "3",
		"vitex_channel_docs_failed_total" + label:    "0",
		"vitex_channel_results_total" + label:        "15",
		"vitex_channel_gaps_total" + label:           "0",
		"vitex_wal_last_cursor" + label:              "3",
		"vitex_engine_live_queries" + label:          "3",
		"vitex_engine_value_groups" + label:          "1",
		"vitex_engine_value_keyed_machines" + label:  "2",
		"vitex_publish_to_ack_seconds_count" + label: "3",
	} {
		if got := series[name]; got != want {
			t.Fatalf("series %s = %q, want %q\nexposition:\n%s", name, got, want, text)
		}
	}
	for _, name := range []string{
		"vitex_channel_bytes_in_total", "vitex_engine_compiles_total",
		"vitex_engine_events_total", "vitex_engine_deliveries_total",
		"vitex_wal_bytes", "vitex_wal_segments", "vitex_wal_replay_docs_total",
		"vitex_engine_eval_event_seconds_count", "vitex_wal_append_seconds_count",
		"vitex_wal_fsync_seconds_count",
	} {
		if _, ok := series[name+label]; !ok {
			t.Fatalf("series %s%s absent\nexposition:\n%s", name, label, text)
		}
	}

	// Histogram shape: the +Inf bucket equals the count, buckets are
	// cumulative (non-decreasing), and the policy label rides on
	// publish-to-delivery.
	if got := series[`vitex_publish_to_ack_seconds_bucket{channel="ticker",le="+Inf"}`]; got != "3" {
		t.Fatalf("publish_to_ack +Inf bucket = %q, want 3\n%s", got, text)
	}
	prev := int64(0)
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `vitex_publish_to_ack_seconds_bucket{channel="ticker"`) {
			continue
		}
		var v int64
		if _, err := fmt.Sscan(line[strings.LastIndex(line, " ")+1:], &v); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q (%d after %d)", line, v, prev)
		}
		prev = v
		buckets++
	}
	if buckets != obs.NumBuckets {
		t.Fatalf("publish_to_ack emitted %d buckets, want the full lattice of %d", buckets, obs.NumBuckets)
	}
	delLabel := `{channel="ticker",policy="block"}`
	for _, name := range []string{"vitex_publish_to_delivery_seconds_count", "vitex_publish_to_first_delivery_seconds_count"} {
		if _, ok := series[name+delLabel]; !ok {
			t.Fatalf("%s missing policy-labeled count\n%s", name, text)
		}
	}

	// The JSON view agrees on the same quantities.
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.Channels["ticker"]
	if cm.Latency == nil || cm.Latency.PublishToAck.Count != docs {
		t.Fatalf("JSON latency = %+v, want publish_to_ack count %d", cm.Latency, docs)
	}
	if cm.Latency.WALAppend == nil || cm.Latency.WALAppend.Count != docs {
		t.Fatalf("JSON wal_append = %+v, want count %d", cm.Latency.WALAppend, docs)
	}
	if m.Totals.Latency == nil || m.Totals.Latency.PublishToAck.Count != docs {
		t.Fatalf("JSON totals latency = %+v", m.Totals.Latency)
	}
	if cm.Engine.ValueGroups != 1 || cm.Engine.ValueKeyedMachines != 2 {
		t.Fatalf("JSON engine value groups = %d of %d machines, want 1 of 2", cm.Engine.ValueGroups, cm.Engine.ValueKeyedMachines)
	}
}

// TestFirstDeliveryLatency: a connection observes publish-to-first-delivery
// once per document it writes, and publish-to-delivery once per result, in
// the JSON view and in the Prometheus view.
func TestFirstDeliveryLatency(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	const docs, perDoc = 4, 2
	for range docs {
		if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
			t.Fatal(err)
		}
	}
	// A line is flushed after its observation, so reading them all means
	// every one is counted.
	for range docs * perDoc {
		if _, err := stream.Next(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lat := m.Channels["ticker"].Latency
	if lat == nil || lat.PublishToFirstDelivery.Count != docs || lat.PublishToDelivery.Count != docs*perDoc {
		t.Fatalf("JSON latency = %+v, want %d first deliveries of %d", lat, docs, docs*perDoc)
	}
	if m.Totals.Latency == nil || m.Totals.Latency.PublishToFirstDelivery.Count != docs {
		t.Fatalf("JSON totals latency = %+v, want %d first deliveries", m.Totals.Latency, docs)
	}
	text, err := cl.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`vitex_publish_to_first_delivery_seconds_count{channel="ticker",policy="block"} %d`, docs)
	if !strings.Contains(text, want+"\n") {
		t.Fatalf("exposition lacks %q\n%s", want, text)
	}
}

// TestDebugTracesEndpoint pins GET /debug/traces: disabled servers answer
// enabled=false with an empty list; enabled servers serve finished records
// newest first through the client helper.
func TestDebugTracesEndpoint(t *testing.T) {
	ctx := context.Background()
	cl, _, _ := startServer(t, server.Config{})
	tr, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Enabled || tr.Emitted != 0 || len(tr.Traces) != 0 {
		t.Fatalf("untraced server /debug/traces = %+v", tr)
	}

	cl2, b2, _ := startServer(t, server.Config{TraceSample: 1})
	sub, err := cl2.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stop := drainInBackground(t, cl2, "ticker", sub.ID)
	defer stop()
	if _, err := cl2.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b2.Tracer().Emitted() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	tr2, err := cl2.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Enabled || tr2.Emitted == 0 || len(tr2.Traces) == 0 {
		t.Fatalf("traced server /debug/traces = %+v", tr2)
	}
	if tr2.Traces[0].Channel != "ticker" || tr2.Traces[0].Deliveries != 2 {
		t.Fatalf("trace record = %+v, want channel ticker with 2 deliveries", tr2.Traces[0])
	}
}
