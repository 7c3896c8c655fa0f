package server_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// openDurable runs a durable broker (recovered from dir) behind an httptest
// server. Unlike startServer it uses server.Open, so calling it twice on the
// same directory is a simulated restart.
func openDurable(t *testing.T, dir string, cfg server.Config) (*client.Client, *server.Broker) {
	t.Helper()
	cfg.DataDir = dir
	b, err := server.Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	cl, shutdown := serveBroker(t, b)
	t.Cleanup(shutdown)
	return cl, b
}

// serveBroker exposes a broker over HTTP and returns an idempotent shutdown
// for restarting mid-test.
func serveBroker(t *testing.T, b *server.Broker) (*client.Client, func()) {
	t.Helper()
	ts := httptest.NewServer(server.Handler(b))
	var once bool
	return client.New(ts.URL), func() {
		if once {
			return
		}
		once = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Shutdown(ctx)
		ts.Close()
	}
}

// drainResults reads the stream until n result deliveries arrived, returning
// them in order (gap markers are collected separately).
func drainResults(t *testing.T, stream *client.ResultStream, n int) (results, gaps []server.Delivery) {
	t.Helper()
	for len(results) < n {
		d, err := stream.Next()
		if err != nil {
			t.Fatalf("after %d/%d results: %v", len(results), n, err)
		}
		switch d.Type {
		case server.DeliveryResult:
			results = append(results, *d)
		case server.DeliveryGap:
			gaps = append(gaps, *d)
		case server.DeliveryEnd:
			t.Fatalf("stream ended after %d/%d results", len(results), n)
		}
	}
	return results, gaps
}

// TestDurableRecovery: a broker reopened on the same data directory carries
// its channels forward — same subscription ids, document cursors continuing
// where the previous process stopped, and the full retained history
// replayable through a resume attach.
func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{}
	cl, b := openDurable(t, dir, cfg)
	ctx := context.Background()

	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pub, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed))
		if err != nil {
			t.Fatal(err)
		}
		if pub.DocSeq != int64(i+1) {
			t.Fatalf("publish %d got DocSeq %d", i, pub.DocSeq)
		}
	}
	if got := b.Recovered(); len(got) != 0 {
		t.Fatalf("fresh broker claims recovered channels: %v", got)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Shutdown(sctx)
	cancel()

	// "Restart": a new broker on the same directory.
	cl2, b2 := openDurable(t, dir, cfg)
	if got := b2.Recovered(); len(got) != 1 || got["ticker"] != 3 {
		t.Fatalf("Recovered() = %v, want ticker at cursor 3", got)
	}

	// The subscription survived under its original id: a full-history resume
	// replays 2 ACME results per document.
	stream, err := cl2.ResultsFrom(ctx, "ticker", sub.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	results, gaps := drainResults(t, stream, 6)
	if len(gaps) != 0 {
		t.Fatalf("unexpected gaps in full replay: %v", gaps)
	}
	for i, d := range results {
		wantDoc := int64(i/2 + 1)
		wantValue := "<price>10</price>"
		wantSeq := int64(0)
		if i%2 == 1 {
			wantValue, wantSeq = "<price>30</price>", 2
		}
		if d.DocSeq != wantDoc || d.Value != wantValue || d.Seq != wantSeq {
			t.Fatalf("replayed delivery %d = %+v, want doc %d value %q seq %d", i, d, wantDoc, wantValue, wantSeq)
		}
	}

	// Cursors continue across the restart: the next publish is document 4,
	// and its results flow live on the same resumed stream.
	pub, err := cl2.Publish(ctx, "ticker", strings.NewReader(httpFeed))
	if err != nil {
		t.Fatal(err)
	}
	if pub.DocSeq != 4 {
		t.Fatalf("post-restart publish DocSeq = %d, want 4", pub.DocSeq)
	}
	live, _ := drainResults(t, stream, 2)
	if live[0].DocSeq != 4 || live[1].DocSeq != 4 {
		t.Fatalf("live deliveries after replay = %+v, want doc 4", live)
	}

	// Durability shows up in /metrics.
	m, err := cl2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Config.Durable {
		t.Fatal("metrics does not report a durable broker")
	}
	cm := m.Channels["ticker"]
	if cm.WAL == nil || cm.WAL.LastCursor != 4 || cm.WAL.RecoveredCursor != 3 {
		t.Fatalf("WAL metrics = %+v, want last 4 recovered 3", cm.WAL)
	}
	if cm.WAL.ReplayDocs != 3 || cm.WAL.ReplayResults != 6 {
		t.Fatalf("replay counters = %+v, want 3 docs / 6 results", cm.WAL)
	}
	if m.Totals.WALBytes == 0 || m.Totals.WALSegments == 0 {
		t.Fatalf("totals missing WAL accounting: %+v", m.Totals)
	}
}

// TestResumeMidDocument: a consumer severed mid-document resumes from its
// token and receives exactly the deliveries it was missing — the spliced
// stream equals the uninterrupted one.
func TestResumeMidDocument(t *testing.T) {
	dir := t.TempDir()
	cl, _ := openDurable(t, dir, server.Config{})
	ctx := context.Background()

	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	// Take the first of document 1's two results, then sever.
	first, _ := drainResults(t, stream, 1)
	token := stream.Token()
	stream.Close()
	if token.Cursor != 1 || token.Seen != 1 {
		t.Fatalf("token = %+v, want cursor 1 seen 1", token)
	}

	resumed := resumeWhenReleased(t, cl, token)
	defer resumed.Close()
	rest, gaps := drainResults(t, resumed, 1)
	if len(gaps) != 0 {
		t.Fatalf("unexpected gaps: %v", gaps)
	}
	if first[0].Value != "<price>10</price>" || rest[0].Value != "<price>30</price>" {
		t.Fatalf("spliced stream = %q then %q, want the two ACME prices in order",
			first[0].Value, rest[0].Value)
	}
	if rest[0].Seq != 2 || rest[0].DocSeq != 1 {
		t.Fatalf("resumed delivery = %+v, want doc 1 seq 2 (identical to live numbering)", rest[0])
	}
}

// TestResumeFromRing: a resume whose token is exactly what the
// subscription's ring has handed out, with nothing dropped since, reads on
// from the ring — no WAL read, no re-evaluation — and every other resume
// replays as before. Each arm severs a consumer after document 1 and waits
// (server.WaitDetached) until the server has let go of its connection before
// publishing what the consumer misses, so which path serves the resume does
// not depend on when the server notices the close.
func TestResumeFromRing(t *testing.T) {
	const query = "//trade[symbol='ACME']/price"
	ctx := context.Background()
	replayDocs := func(b *server.Broker) int64 { return b.Metrics().Channels["ticker"].WAL.ReplayDocs }
	publish := func(t *testing.T, cl *client.Client, n int) {
		t.Helper()
		for range n {
			if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	subscribe := func(t *testing.T, cl *client.Client) (string, *client.ResultStream) {
		t.Helper()
		sub, err := cl.Subscribe(ctx, "ticker", query)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := cl.Results(ctx, "ticker", sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stream.Close() })
		return sub.ID, stream
	}
	// sever closes stream and waits until the server has released it.
	sever := func(t *testing.T, b *server.Broker, id string, stream *client.ResultStream) {
		t.Helper()
		stream.Close()
		if err := server.WaitDetached(b, "ticker", id); err != nil {
			t.Fatal(err)
		}
	}
	// resume reattaches at token; the slot is free, so it attaches at once.
	// A stream that stalls fails the test at its deadline instead of
	// hanging it.
	resume := func(t *testing.T, cl *client.Client, token client.ResumeToken) *client.ResultStream {
		t.Helper()
		rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		t.Cleanup(cancel)
		stream, err := cl.Resume(rctx, token)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stream.Close() })
		return stream
	}
	// same requires got to be want, delivery for delivery.
	same := func(t *testing.T, got, want []server.Delivery) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %d deliveries, want %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.DocSeq != w.DocSeq || g.Seq != w.Seq || g.NodeOffset != w.NodeOffset || g.Value != w.Value {
				t.Fatalf("delivery %d = %+v, want %+v", i, g, w)
			}
		}
	}
	// asDoc is doc 1's results renumbered as document seq: every published
	// document is httpFeed.
	asDoc := func(doc1 []server.Delivery, seq int64) []server.Delivery {
		out := append([]server.Delivery(nil), doc1...)
		for i := range out {
			out[i].DocSeq = seq
		}
		return out
	}

	t.Run("up-to-date", func(t *testing.T) {
		cl, b := openDurable(t, t.TempDir(), server.Config{})
		_, twin := subscribe(t, cl)
		id, stream := subscribe(t, cl)
		publish(t, cl, 1)
		got, _ := drainResults(t, stream, 2)
		sever(t, b, id, stream)
		publish(t, cl, 2)
		resumed := resume(t, cl, client.ResumeToken{Channel: "ticker", SubID: id, Cursor: 1, Seen: 2})
		rest, gaps := drainResults(t, resumed, 4)
		publish(t, cl, 1) // and on, live
		live, liveGaps := drainResults(t, resumed, 2)
		if len(gaps)+len(liveGaps) != 0 {
			t.Fatalf("gaps on a lossless resume: %+v %+v", gaps, liveGaps)
		}
		want, _ := drainResults(t, twin, 8)
		same(t, append(append(got, rest...), live...), want)
		if n := replayDocs(b); n != 0 {
			t.Fatalf("ReplayDocs = %d, want 0: the ring held everything after the token", n)
		}
	})

	t.Run("token-behind", func(t *testing.T) {
		cl, b := openDurable(t, t.TempDir(), server.Config{})
		_, twin := subscribe(t, cl)
		id, stream := subscribe(t, cl)
		publish(t, cl, 2)
		// The consumer holds one line when it goes away; the server had
		// written the next one too, which is lost in flight.
		got, _ := drainResults(t, stream, 1)
		token := stream.Token()
		drainResults(t, stream, 1)
		sever(t, b, id, stream)
		publish(t, cl, 1)
		resumed := resume(t, cl, token)
		rest, gaps := drainResults(t, resumed, 5)
		if len(gaps) != 0 {
			t.Fatalf("gaps on a replayed resume: %+v", gaps)
		}
		want, _ := drainResults(t, twin, 6)
		same(t, append(got, rest...), want)
		if replayDocs(b) == 0 {
			t.Fatal("ReplayDocs did not move: a token behind the handed position must replay")
		}
	})

	t.Run("drop", func(t *testing.T) {
		// A two-slot ring that drops: while the consumer is away, document 2
		// fills it and documents 3–5 are dropped. Replay heals the drop.
		cl, b := openDurable(t, t.TempDir(), server.Config{RingSize: 2, Policy: server.PolicyDrop})
		id, stream := subscribe(t, cl)
		publish(t, cl, 1)
		doc1, _ := drainResults(t, stream, 2)
		token := stream.Token()
		sever(t, b, id, stream)
		publish(t, cl, 4)
		resumed := resume(t, cl, token)
		rest, gaps := drainResults(t, resumed, 8)
		if len(gaps) != 0 {
			t.Fatalf("gaps after a healing replay: %+v", gaps)
		}
		var want []server.Delivery
		for seq := int64(2); seq <= 5; seq++ {
			want = append(want, asDoc(doc1, seq)...)
		}
		same(t, rest, want)
		if replayDocs(b) == 0 {
			t.Fatal("ReplayDocs did not move: a ring that dropped must replay")
		}
	})

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		cl, b := openDurable(t, dir, server.Config{})
		id, stream := subscribe(t, cl)
		publish(t, cl, 1)
		doc1, _ := drainResults(t, stream, 2)
		token := stream.Token()
		sever(t, b, id, stream)
		publish(t, cl, 1)
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		b.Shutdown(sctx)
		cancel()
		cl, b = openDurable(t, dir, server.Config{})
		resumed := resume(t, cl, token)
		rest, gaps := drainResults(t, resumed, 2)
		if len(gaps) != 0 {
			t.Fatalf("gaps after a restart: %+v", gaps)
		}
		same(t, rest, asDoc(doc1, 2))
		if replayDocs(b) == 0 {
			t.Fatal("ReplayDocs did not move: a restarted broker has no ring to resume from")
		}
	})
}

// resumeWhenReleased resumes from token. The server releases the attach slot
// when it observes the severed connection — a moment after Close returns — so
// it retries like a reconnecting client would.
func resumeWhenReleased(t *testing.T, cl *client.Client, token client.ResumeToken) *client.ResultStream {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resumed, err := cl.Resume(context.Background(), token)
		if err == nil {
			return resumed
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 409 || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeAfterReplace: a subscriber severed before its own query is
// replaced must not get the documents published before the replace back
// through the new query — the uninterrupted stream saw them through the old
// one. Which stream the resume reproduces depends on what the server had
// handed out when the consumer went away:
//   - released: the server let go of the old connection before document 2
//     arrived, so the ring still holds document 2 as it was evaluated, and
//     the resume reads on from it — the uninterrupted twin's stream,
//     document 2 through ACME then document 3 through WIDG, with no gap;
//   - handed: the old connection was handed document 2 (and lost it in
//     flight), so the token trails the ring and replay runs. Replay cannot
//     re-evaluate documents 1–2 as they were, so it says so with one gap up
//     to the replace cursor and replays only what the current query
//     evaluated;
//   - restart: the ring is gone, and replay does the same across a restart.
func TestResumeAfterReplace(t *testing.T) {
	t.Run("restart=false", func(t *testing.T) {
		t.Run("released", func(t *testing.T) { testResumeAfterReplace(t, "released") })
		t.Run("handed", func(t *testing.T) { testResumeAfterReplace(t, "handed") })
	})
	t.Run("restart=true", func(t *testing.T) { testResumeAfterReplace(t, "restart") })
}

func testResumeAfterReplace(t *testing.T, mode string) {
	dir := t.TempDir()
	cl, b := openDurable(t, dir, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	drainResults(t, stream, 2)
	token := stream.Token()
	if mode == "released" {
		stream.Close()
		if err := server.WaitDetached(b, "ticker", sub.ID); err != nil {
			t.Fatal(err)
		}
	}

	// Severed: document 2 is evaluated through the ACME query, then the
	// subscription's own query is replaced.
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if mode == "handed" {
		// Document 2 reaches the connection, but not the token: it is lost
		// in flight.
		drainResults(t, stream, 1)
	}
	stream.Close()
	if _, err := cl.Replace(ctx, "ticker", sub.ID, "//trade[symbol='WIDG']/price"); err != nil {
		t.Fatal(err)
	}
	if mode == "restart" {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		b.Shutdown(sctx)
		cancel()
		cl, _ = openDurable(t, dir, server.Config{})
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}

	resumed := resumeWhenReleased(t, cl, token)
	defer resumed.Close()
	if mode == "released" {
		results, gaps := drainResults(t, resumed, 3)
		want := []struct {
			doc   int64
			value string
		}{{2, "<price>10</price>"}, {2, "<price>30</price>"}, {3, "<price>20</price>"}}
		for i, d := range results {
			if len(gaps) != 0 || d.DocSeq != want[i].doc || d.Value != want[i].value {
				t.Fatalf("resumed stream: results %+v gaps %+v, want document 2's ACME prices then document 3's WIDG price", results, gaps)
			}
		}
	} else {
		d, err := resumed.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Type != server.DeliveryGap || d.Reason != server.GapReplaced || d.FromCursor != 1 || d.ToCursor != 2 {
			t.Fatalf("first resumed delivery = %+v, want a replace gap over [1, 2]", d)
		}
		results, gaps := drainResults(t, resumed, 1)
		if len(gaps) != 0 || results[0].DocSeq != 3 || results[0].Value != "<price>20</price>" {
			t.Fatalf("after the gap: results %+v gaps %+v, want document 3's WIDG price", results, gaps)
		}
	}
	// Nothing else of documents 1–3 follows: the next result is live.
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if live, _ := drainResults(t, resumed, 1); live[0].DocSeq != 4 {
		t.Fatalf("next delivery = %+v, want document 4", live[0])
	}
}

// TestResumeNotDurable: a memory-only broker refuses resume attaches with a
// structured 400, and a severed stream surfaces the typed interruption.
func TestResumeNotDurable(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.ResultsFrom(ctx, "ticker", sub.ID, 1, 0)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("resume on memory broker: err = %v, want APIError 400", err)
	}

	// Sever a live stream without an end marker (shutdown closes the HTTP
	// server under it): the client reports ErrStreamInterrupted with the
	// position reached.
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	drainResults(t, stream, 3)
	stream.Close() // sever from the client side; Next must report interruption
	for {
		_, err := stream.Next()
		if err == nil {
			continue // buffered deliveries drain first
		}
		var interrupted *client.ErrStreamInterrupted
		if !errors.As(err, &interrupted) {
			t.Fatalf("severed stream err = %v, want ErrStreamInterrupted", err)
		}
		if interrupted.Token.Cursor != 1 || interrupted.Token.Seen != 3 {
			t.Fatalf("interruption token = %+v, want cursor 1 seen 3", interrupted.Token)
		}
		break
	}
}

// TestResumeRetentionGap: resuming from a cursor the log no longer retains
// yields one gap marker naming the unavailable range, then the surviving
// documents.
func TestResumeRetentionGap(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments + minimum retention: publishing enough documents evicts
	// the head of the log.
	cl, b := openDurable(t, dir, server.Config{
		WALSegmentBytes:   256,
		WALRetainSegments: 2,
	})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	const docs = 12
	for i := 0; i < docs; i++ {
		if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
			t.Fatal(err)
		}
	}
	m := b.Metrics()
	oldest := m.Channels["ticker"].WAL.FirstCursor
	if oldest <= 1 {
		t.Fatalf("retention did not advance the oldest cursor (first=%d); segment budget too large?", oldest)
	}

	stream, err := cl.ResultsFrom(ctx, "ticker", sub.ID, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	d, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Type != server.DeliveryGap || d.Reason != server.GapRetention {
		t.Fatalf("first delivery = %+v, want a retention gap", d)
	}
	if d.FromCursor != 1 || d.ToCursor != oldest-1 {
		t.Fatalf("gap range [%d, %d], want [1, %d]", d.FromCursor, d.ToCursor, oldest-1)
	}
	// Everything still retained replays in full: 2 results per surviving doc.
	want := int(docs-oldest+1) * 2
	results, _ := drainResults(t, stream, want)
	if results[0].DocSeq != oldest || results[len(results)-1].DocSeq != docs {
		t.Fatalf("replayed docs [%d, %d], want [%d, %d]",
			results[0].DocSeq, results[len(results)-1].DocSeq, oldest, docs)
	}
}

// TestDurableSubscriptionChurn: subscription adds, replaces and removes all
// persist — the manifest a restart recovers reflects the final state.
func TestDurableSubscriptionChurn(t *testing.T) {
	dir := t.TempDir()
	cl, b := openDurable(t, dir, server.Config{})
	ctx := context.Background()

	keep, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	gone, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replace(ctx, "ticker", keep.ID, "//trade[symbol='WIDG']/price"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(ctx, "ticker", gone.ID); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Shutdown(sctx)
	cancel()

	cl2, _ := openDurable(t, dir, server.Config{})
	// The kept subscription answers with its replaced query; the removed one
	// is gone.
	stream, err := cl2.Results(ctx, "ticker", keep.ID)
	if err != nil {
		t.Fatalf("recovered subscription did not survive: %v", err)
	}
	defer stream.Close()
	if _, err := cl2.Results(ctx, "ticker", gone.ID); err == nil {
		t.Fatal("unsubscribed subscription resurrected by recovery")
	}
	if _, err := cl2.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	results, _ := drainResults(t, stream, 1)
	if results[0].Value != "<price>20</price>" {
		t.Fatalf("recovered query delivered %q, want the replaced query's match", results[0].Value)
	}
}

// TestReplaceFailureKeepsOldQuery: a replace whose manifest write fails
// changes nothing. The old query keeps answering, and the next manifest write
// records the old query, so a restart recovers it.
func TestReplaceFailureKeepsOldQuery(t *testing.T) {
	dir := t.TempDir()
	cl, b := openDurable(t, dir, server.Config{})
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

	// A non-empty directory where the manifest stands makes its rename fail,
	// even for root.
	manifests, err := filepath.Glob(filepath.Join(dir, "channels", "*", "manifest.json"))
	if err != nil || len(manifests) != 1 {
		t.Fatalf("manifests %v (%v), want one", manifests, err)
	}
	if err := os.Remove(manifests[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(manifests[0], "fault"), 0o755); err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError
	if _, err := cl.Replace(ctx, "ticker", sub.ID, "//trade[symbol='WIDG']/price"); !errors.As(err, &apiErr) || apiErr.Status != 500 {
		t.Fatalf("replace with an unwritable manifest: %v, want a 500", err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	// One result at a time: the WIDG query matches once, so waiting for two
	// of its results would hang instead of failing.
	for _, want := range []string{"<price>10</price>", "<price>30</price>"} {
		if results, gaps := drainResults(t, stream, 1); len(gaps) != 0 || results[0].Value != want {
			t.Fatalf("after the failed replace: results %+v gaps %+v, want the ACME query's %s", results, gaps, want)
		}
	}

	// The fault clears; the next subscribe rewrites the manifest from what
	// the channel holds.
	if err := os.RemoveAll(manifests[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='NONE']/price"); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	b.Shutdown(sctx)
	cancel()

	cl2, _ := openDurable(t, dir, server.Config{})
	recovered, err := cl2.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if _, err := cl2.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if results, _ := drainResults(t, recovered, 1); results[0].Value != "<price>10</price>" {
		t.Fatalf("after a restart the subscription delivered %q, want the ACME query's first price", results[0].Value)
	}
}

// TestDurableChannelDelete: deleting a channel removes its durable state — a
// restart does not resurrect it, and re-creating the name starts a fresh
// cursor space.
func TestDurableChannelDelete(t *testing.T) {
	dir := t.TempDir()
	cl, b := openDurable(t, dir, server.Config{})
	ctx := context.Background()
	if _, err := cl.Subscribe(ctx, "tmp", "//trade/price"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "tmp", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteChannel(ctx, "tmp"); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Shutdown(sctx)
	cancel()

	cl2, b2 := openDurable(t, dir, server.Config{})
	if got := b2.Recovered(); len(got) != 0 {
		t.Fatalf("deleted channel resurrected: %v", got)
	}
	pub, err := cl2.Publish(ctx, "tmp", strings.NewReader(httpFeed))
	if err != nil {
		t.Fatal(err)
	}
	if pub.DocSeq != 1 {
		t.Fatalf("re-created channel starts at DocSeq %d, want 1", pub.DocSeq)
	}
}

// TestDurableOddChannelNames: channel names with path metacharacters and
// length extremes survive the round trip through directory naming.
func TestDurableOddChannelNames(t *testing.T) {
	dir := t.TempDir()
	names := []string{
		"simple",
		"with/slash and space",
		"../../escape attempt",
		strings.Repeat("long", 50),
	}
	cl, b := openDurable(t, dir, server.Config{})
	ctx := context.Background()
	for _, name := range names {
		if _, err := cl.Subscribe(ctx, name, "//trade/price"); err != nil {
			t.Fatalf("subscribe %q: %v", name, err)
		}
		if _, err := cl.Publish(ctx, name, strings.NewReader(httpFeed)); err != nil {
			t.Fatalf("publish %q: %v", name, err)
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	b.Shutdown(sctx)
	cancel()

	_, b2 := openDurable(t, dir, server.Config{})
	rec := b2.Recovered()
	for _, name := range names {
		if rec[name] != 1 {
			t.Fatalf("channel %q recovered at cursor %d, want 1 (all: %v)", name, rec[name], rec)
		}
	}
	if len(rec) != len(names) {
		t.Fatalf("recovered %d channels, want %d: %v", len(rec), len(names), rec)
	}
}

// TestDurablePublishFailedDoc: a document that fails evaluation still
// occupies its cursor in the WAL; replaying over it reproduces the gap
// marker instead of derailing the stream.
func TestDurablePublishFailedDoc(t *testing.T) {
	dir := t.TempDir()
	cl, _ := openDurable(t, dir, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader("<feed><trade><oops")); err == nil {
		t.Fatal("malformed publish succeeded")
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}

	stream, err := cl.ResultsFrom(ctx, "ticker", sub.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var results, gaps []server.Delivery
	for len(results) < 4 {
		d, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch d.Type {
		case server.DeliveryResult:
			results = append(results, *d)
		case server.DeliveryGap:
			gaps = append(gaps, *d)
		}
	}
	if len(gaps) != 1 || gaps[0].DocSeq != 2 || !strings.Contains(gaps[0].Reason, "document aborted") {
		t.Fatalf("replay gaps = %+v, want one aborted-document marker for doc 2", gaps)
	}
	for i, d := range results {
		wantDoc := int64(1)
		if i >= 2 {
			wantDoc = 3
		}
		if d.DocSeq != wantDoc {
			t.Fatalf("result %d on doc %d, want %d", i, d.DocSeq, wantDoc)
		}
	}
}

// TestDurableQueueFullNotLogged exercises the admission ordering: a publish
// rejected for queue room must not consume a cursor, so the WAL never holds
// a record for a rejected document. (Async publishes against a stalled
// 1-deep queue force the rejection.)
func TestDurableQueueFullNotLogged(t *testing.T) {
	dir := t.TempDir()
	cl, b := openDurable(t, dir, server.Config{QueueDepth: 1, RingSize: 1})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	// No attached consumer + block policy: the first doc's evaluation parks
	// on the full ring, and at most one more fits the queue, whether it
	// arrives before or after the drainer takes the first. Every other async
	// publish bounces with 429.
	var accepted int64
	var rejected int
	for i := 0; i < 20; i++ {
		pub, err := cl.PublishAsync(ctx, "ticker", strings.NewReader(httpFeed))
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) || apiErr.Status != 429 {
				t.Fatalf("publish %d: %v, want 429", i, err)
			}
			rejected++
			continue
		}
		if pub.DocSeq != accepted+1 {
			t.Fatalf("accepted publish got DocSeq %d, want %d (cursors must not skip)", pub.DocSeq, accepted+1)
		}
		accepted++
	}
	if accepted < 1 || accepted > 2 || rejected != 20-int(accepted) {
		t.Fatalf("%d publishes accepted and %d rejected, want 1 or 2 accepted and the rest rejected", accepted, rejected)
	}
	m := b.Metrics()
	if got := m.Channels["ticker"].WAL.LastCursor; got != accepted {
		t.Fatalf("WAL last cursor %d, want %d accepted publishes (rejected docs must not be logged)", got, accepted)
	}
	// The parked push ends with the subscription, so the cleanup's Shutdown
	// drains at once instead of waiting out its deadline.
	if err := cl.Unsubscribe(ctx, "ticker", sub.ID); err != nil {
		t.Fatal(err)
	}
}
