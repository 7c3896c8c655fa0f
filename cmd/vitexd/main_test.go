package main

import (
	"context"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
)

// startDaemon runs the daemon on a free port until the test ends and returns
// its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "5s"}, io.Discard, ready)
	}()
	t.Cleanup(func() {
		stop()
		if err := <-done; err != nil {
			t.Errorf("daemon exit: %v", err)
		}
	})
	select {
	case addr := <-ready:
		return addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return ""
}

// TestSlowHeadersClosed: a connection that starts a request and never
// finishes its headers is closed once the header timeout passes, while a
// result stream, one long response, outlives it.
func TestSlowHeadersClosed(t *testing.T) {
	defer func(d time.Duration) { headerTimeout = d }(headerTimeout)
	headerTimeout = 200 * time.Millisecond
	addr := startDaemon(t)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: vitexd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start), err)
	}

	cl := client.New("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sub, err := cl.Subscribe(ctx, "news", "//story/headline[. = 'late']")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(ctx, "news", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	time.Sleep(3 * headerTimeout)
	if _, err := cl.Publish(ctx, "news", strings.NewReader(`<feed><story><headline>late</headline></story></feed>`)); err != nil {
		t.Fatal(err)
	}
	d, err := stream.Next()
	if err != nil {
		t.Fatalf("result stream did not outlive the header timeout: %v", err)
	}
	if d.Type != server.DeliveryResult || d.Value != "<headline>late</headline>" {
		t.Fatalf("delivery = %+v", d)
	}
}

// TestEndToEnd boots the daemon on a free port, runs the full lifecycle
// over the wire — subscribe, stream, publish, assert matches — and shuts
// down gracefully (the signal path, minus the signal).
func TestEndToEnd(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain", "10s"}, io.Discard, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	cl := client.New("http://" + addr)
	rctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sub, err := cl.Subscribe(rctx, "news", "//story[@section='tech']/headline/text()")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := cl.Results(rctx, "news", sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	feed := `<feed>
	  <story section="tech"><headline>Streaming engines</headline></story>
	  <story section="sports"><headline>Game on</headline></story>
	  <story section="tech"><headline>Protein data</headline></story>
	</feed>`
	pub, err := cl.Publish(rctx, "news", strings.NewReader(feed))
	if err != nil {
		t.Fatal(err)
	}
	if pub.Results != 2 {
		t.Fatalf("publish matched %d, want 2", pub.Results)
	}
	for _, want := range []string{"Streaming engines", "Protein data"} {
		d, err := stream.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Type != server.DeliveryResult || d.Value != want {
			t.Fatalf("delivery = %+v, want %q", d, want)
		}
	}

	// Graceful shutdown: the attached stream must finish with an end line,
	// and the daemon must exit cleanly.
	stop()
	sawEnd := false
	for !sawEnd {
		d, err := stream.Next()
		if err != nil {
			t.Fatalf("stream severed without end marker during drain: %v", err)
		}
		sawEnd = d.Type == server.DeliveryEnd
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not stop after drain")
	}
}
