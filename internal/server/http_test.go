package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// startServer runs a broker behind an httptest server and returns a client
// for it. Shutdown order matters: broker first (ends result streams), then
// the HTTP server (whose Close waits for active handlers).
func startServer(t *testing.T, cfg server.Config) (*client.Client, *server.Broker, string) {
	t.Helper()
	b := server.New(cfg)
	ts := httptest.NewServer(server.Handler(b))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b.Shutdown(ctx)
		ts.Close()
	})
	return client.New(ts.URL), b, ts.URL
}

const httpFeed = `<feed>
  <trade><symbol>ACME</symbol><price>10</price></trade>
  <trade><symbol>WIDG</symbol><price>20</price></trade>
  <trade><symbol>ACME</symbol><price>30</price></trade>
</feed>`

// TestHTTPLifecycle drives the full wire protocol through the Go client:
// subscribe, stream, publish, replace, unsubscribe, metrics.
func TestHTTPLifecycle(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()

	sub, err := cl.Subscribe(ctx, "ticker", "//trade[symbol='ACME']/price")
	if err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Channel != "ticker" {
		t.Fatalf("subscribe response = %+v", sub)
	}

	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	// A second attach is refused while the first is live.
	if _, err := cl.Results(ctx, "ticker", sub.ID); err == nil {
		t.Fatal("second Results attach succeeded, want 409")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 409 {
			t.Fatalf("second attach err = %v, want APIError 409", err)
		}
	}

	pub, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Results != 2 || pub.DocSeq != 1 {
		t.Fatalf("publish = %+v, want 2 results on doc 1", pub)
	}

	// Seq is candidate-creation order with holes for unconfirmed candidates:
	// the WIDG price consumed seq 1 without matching.
	for i, want := range []struct {
		value string
		seq   int64
	}{{"<price>10</price>", 0}, {"<price>30</price>", 2}} {
		d, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Type != server.DeliveryResult || d.Value != want.value || d.DocSeq != 1 || d.Seq != want.seq {
			t.Fatalf("delivery %d = %+v, want value %q seq %d", i, d, want.value, want.seq)
		}
	}

	// Replace in place: same id, new query takes effect on the next doc.
	if _, err := cl.Replace(ctx, "ticker", sub.ID, "//trade[symbol='WIDG']/price"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	d, err := stream.Next()
	if err != nil {
		t.Fatal(err)
	}
	if d.Value != "<price>20</price>" || d.DocSeq != 2 {
		t.Fatalf("post-replace delivery = %+v", d)
	}

	m, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cm, okCh := m.Channels["ticker"]
	if !okCh || cm.DocsIn != 2 || cm.Subscriptions != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if cm.Engine.Compiles == 0 {
		t.Fatalf("engine metrics missing: %+v", cm.Engine)
	}

	// Unsubscribe ends the stream with an explicit end marker.
	if err := cl.Unsubscribe(ctx, "ticker", sub.ID); err != nil {
		t.Fatal(err)
	}
	for {
		d, err := stream.Next()
		if err != nil {
			t.Fatalf("stream severed without end marker: %v", err)
		}
		if d.Type == server.DeliveryEnd {
			break
		}
	}
	if _, err := stream.Next(); err != io.EOF {
		t.Fatalf("after end marker: err = %v, want io.EOF", err)
	}
}

// TestHTTPAsyncParam: ?async truthiness — async=0/false still publish
// synchronously (Results populated), async/async=1 queue.
func TestHTTPAsyncParam(t *testing.T) {
	cl, _, base := startServer(t, server.Config{})
	ctx := context.Background()
	if _, err := cl.Subscribe(ctx, "ticker", "//trade/price"); err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{}
	post := func(query string) (int, server.PublishResponse) {
		resp, err := hc.Post(base+"/channels/ticker/documents"+query, "application/xml", strings.NewReader(httpFeed))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out server.PublishResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	for _, q := range []string{"", "?async=0", "?async=false"} {
		status, out := post(q)
		if status != 200 || out.Queued || out.Results != 3 {
			t.Fatalf("publish%s = %d %+v, want synchronous 200 with 3 results", q, status, out)
		}
	}
	for _, q := range []string{"?async", "?async=1", "?async=true"} {
		status, out := post(q)
		if status != 202 || !out.Queued {
			t.Fatalf("publish%s = %d %+v, want 202 queued", q, status, out)
		}
	}
}

// TestHTTPDeleteChannel: deleting a channel drains its queue, ends all its
// streams, and frees the name for re-creation.
func TestHTTPDeleteChannel(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "tmp", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "tmp", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := cl.PublishAsync(ctx, "tmp", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteChannel(ctx, "tmp"); err != nil {
		t.Fatal(err)
	}
	// The queued document still evaluated; the stream delivers its results
	// and then ends.
	var results int
	for {
		d, err := stream.Next()
		if err != nil {
			t.Fatalf("stream severed without end after delete: %v", err)
		}
		if d.Type == server.DeliveryResult {
			results++
		}
		if d.Type == server.DeliveryEnd {
			break
		}
	}
	if results != 3 {
		t.Fatalf("drained %d results through channel delete, want 3", results)
	}
	if err := cl.DeleteChannel(ctx, "tmp"); err == nil {
		t.Fatal("second delete succeeded, want 404")
	}
	// The name is free again.
	if _, err := cl.Subscribe(ctx, "tmp", "//trade/price"); err != nil {
		t.Fatalf("re-creating deleted channel: %v", err)
	}
}

// TestHTTPBadQuery: a malformed XPath subscription is rejected with a 400
// carrying the parse position.
func TestHTTPBadQuery(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	_, err := cl.Subscribe(context.Background(), "ticker", "//trade[")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if apiErr.Position == 0 {
		t.Fatalf("parse error lost its position: %+v", apiErr)
	}
}

// TestHTTPQueryBodyCapped: a 6 MB subscription query (two million nested
// predicates) is refused with a structured 400 before it is parsed, and the
// server goes on serving.
func TestHTTPQueryBodyCapped(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()
	const depth = 2_000_000
	bomb := "//a" + strings.Repeat("[a", depth) + strings.Repeat("]", depth)
	_, err := cl.Subscribe(ctx, "ticker", bomb)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Error(), "too large") {
		t.Fatalf("subscribe with a %d-byte query: err = %v, want a 400 saying the body is too large", len(bomb), err)
	}
	sub, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replace(ctx, "ticker", sub.ID, bomb); !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("replace with a %d-byte query: err = %v, want a 400", len(bomb), err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if pub, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil || pub.Results != 3 {
		t.Fatalf("publish after the refused queries = %+v, %v", pub, err)
	}
	for i := 0; i < 3; i++ {
		if d, err := stream.Next(); err != nil || d.Type != server.DeliveryResult {
			t.Fatalf("delivery %d = %+v, %v", i, d, err)
		}
	}
}

// TestHTTPMalformedDocument: a malformed publish returns a structured 400
// with the syntax-error offset and the consumed doc number, and the
// subscriber's stream shows a gap marker, not a stall.
func TestHTTPMalformedDocument(t *testing.T) {
	cl, _, _ := startServer(t, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	_, err = cl.Publish(ctx, "ticker", strings.NewReader("<feed><trade><price>5</price></trade><oops"))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("publish err = %v, want APIError 400", err)
	}
	if apiErr.Offset == 0 || apiErr.DocSeq != 1 {
		t.Fatalf("structured error incomplete: %+v", apiErr.ErrorResponse)
	}

	// The partial result arrives, then the gap marker for the same doc.
	sawGap := false
	for !sawGap {
		d, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Type == server.DeliveryGap {
			if d.DocSeq != 1 || !strings.Contains(d.Reason, "document aborted") {
				t.Fatalf("gap = %+v", d)
			}
			sawGap = true
		}
	}
}

// TestHTTPShutdownEndsStreams: broker shutdown finishes attached result
// streams with an end marker after delivering what was proven.
func TestHTTPShutdownEndsStreams(t *testing.T) {
	cl, b, _ := startServer(t, server.Config{})
	ctx := context.Background()
	sub, err := cl.Subscribe(ctx, "ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "ticker", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	if _, err := cl.Publish(ctx, "ticker", strings.NewReader(httpFeed)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var results int
	var end bool
	go func() {
		defer wg.Done()
		for {
			d, err := stream.Next()
			if err != nil {
				return
			}
			if d.Type == server.DeliveryResult {
				results++
			}
			if d.Type == server.DeliveryEnd {
				end = true
				return
			}
		}
	}()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if results != 3 || !end {
		t.Fatalf("drained %d results, end=%v; want 3 results and an end marker", results, end)
	}
}
