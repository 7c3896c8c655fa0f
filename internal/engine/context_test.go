package engine

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/twigm"
)

// ctxDoc builds a document with n matches for //a/b.
func ctxDoc(n int) string {
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < n; i++ {
		sb.WriteString("<a><b>x</b></a>")
	}
	sb.WriteString("</root>")
	return sb.String()
}

// cancelAfterReader cancels a context after the first Read call, simulating
// an external cancellation (deadline, disconnecting client) landing while
// the scan is consuming the stream.
type cancelAfterReader struct {
	r      io.Reader
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if !c.fired {
		c.fired = true
		c.cancel()
	}
	return n, err
}

func countingOpts(n int, count *int64) []twigm.Options {
	opts := make([]twigm.Options, n)
	for i := range opts {
		opts[i] = twigm.Options{EmitFrom: func(int, twigm.Result) error {
			*count++
			return nil
		}}
	}
	return opts
}

// TestCancelDuringScan: a context canceled while the scan is mid-document
// aborts the evaluation promptly with ctx.Err().
func TestCancelDuringScan(t *testing.T) {
	const matches = 5000
	doc := ctxDoc(matches)
	e := mustEngine(t, "//a/b", "//a/b/text()")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count int64
	r := &cancelAfterReader{r: strings.NewReader(doc), cancel: cancel}
	_, err := streamOpts(ctx, e.Snapshot(), r, countingOpts(e.Len(), &count))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count >= 2*matches {
		t.Fatalf("%d results delivered after cancellation (full doc = %d)", count, 2*matches)
	}
}

// TestCancelDuringProjectedOutScan: a cancellation lands while the scan is in
// a stretch of the document no query observes, which the scanner projects out
// and queues nothing of. The scan still stops promptly, long before the end of
// the input, instead of reading on to the next event it queues.
func TestCancelDuringProjectedOutScan(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<root>")
	for sb.Len() < 1<<20 {
		sb.WriteString("<x><y>z</y></x> ")
	}
	sb.WriteString("<a><b>x</b></a></root>")
	doc := sb.String()
	e := mustEngine(t, "//a/b")
	if e.Snapshot().ep.projection() == nil {
		t.Fatal("//a/b is not projected")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count int64
	src := strings.NewReader(doc)
	r := &cancelAfterReader{r: src, cancel: cancel}
	_, err := streamOpts(ctx, e.Snapshot(), r, countingOpts(e.Len(), &count))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if read := len(doc) - src.Len(); read > len(doc)/4 {
		t.Fatalf("read %d of %d bytes after the cancellation", read, len(doc))
	}
	if count != 0 {
		t.Fatalf("%d results delivered after cancellation", count)
	}
}

// TestCancelDuringEmit: an Emit callback canceling the context stops the
// stream before any further result is delivered, and the evaluation reports
// ctx.Err() even though the callback itself returned nil.
func TestCancelDuringEmit(t *testing.T) {
	doc := ctxDoc(2000)
	e := mustEngine(t, "//a/b", "//a/b/text()")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var count int64
	opts := make([]twigm.Options, e.Len())
	for i := range opts {
		opts[i] = twigm.Options{EmitFrom: func(int, twigm.Result) error {
			count++
			if count == 1 {
				cancel()
			}
			return nil
		}}
	}
	_, err := streamOpts(ctx, e.Snapshot(), strings.NewReader(doc), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 1 {
		t.Fatalf("%d results delivered, want exactly 1 (none after cancel)", count)
	}
}

// TestPreCanceledContext: evaluation with an already-canceled context does
// no machine work at all.
func TestPreCanceledContext(t *testing.T) {
	doc := ctxDoc(100)
	e := mustEngine(t, "//a/b", "//a/b/text()")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count int64
	stats, err := streamOpts(ctx, e.Snapshot(), strings.NewReader(doc), countingOpts(e.Len(), &count))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 0 {
		t.Fatalf("%d results delivered on a pre-canceled context", count)
	}
	if len(stats) > 0 && stats[0].Pushes != 0 {
		t.Fatalf("machine pushed %d entries on a pre-canceled context", stats[0].Pushes)
	}
}

// TestDeadlineExceededSurfaces: a context that dies by deadline reports
// DeadlineExceeded, not Canceled — the engine must return ctx.Err(), not a
// sentinel of its own.
func TestDeadlineExceededSurfaces(t *testing.T) {
	e := mustEngine(t, "//a/b")
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer dcancel()
	var count int64
	_, err := streamOpts(dctx, e.Snapshot(), strings.NewReader(ctxDoc(10)), countingOpts(e.Len(), &count))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestContextlessStreamUnchanged: the plain Stream entry points must be
// unaffected by the cancellation plumbing.
func TestContextlessStreamUnchanged(t *testing.T) {
	e := mustEngine(t, "//a/b")
	var count int64
	_, err := streamOpts(context.Background(), e.Snapshot(), strings.NewReader(ctxDoc(50)), countingOpts(e.Len(), &count))
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}
