package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// feedDoc builds a document with n <trade> entries matching //trade/price.
func feedDoc(n int) []byte {
	var sb strings.Builder
	sb.WriteString("<feed>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<trade><symbol>ACME</symbol><price>%d</price></trade>", i)
	}
	sb.WriteString("</feed>")
	return []byte(sb.String())
}

// drainSub consumes a subscription's ring until end-of-stream, returning
// the deliveries.
func drainSub(t *testing.T, sub *subscription) []Delivery {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []Delivery
	for {
		d, ok, err := sub.ring.next(ctx)
		if err != nil {
			t.Fatalf("drain timed out after %d deliveries", len(out))
		}
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

// TestPublishDeliversMatches: the basic path — subscribe, publish, results
// land in the ring tagged with the document number.
func TestPublishDeliversMatches(t *testing.T) {
	b := New(Config{})
	resp, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := b.Publish(context.Background(), "ticker", feedDoc(5), true)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Results != 5 || pub.DocSeq != 1 {
		t.Fatalf("publish = %+v, want 5 results on doc 1", pub)
	}
	sub, err := b.subscription("ticker", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := drainSub(t, sub)
	if len(ds) != 5 {
		t.Fatalf("got %d deliveries, want 5", len(ds))
	}
	for i, d := range ds {
		if d.Type != DeliveryResult || d.DocSeq != 1 || d.Seq != int64(i) {
			t.Fatalf("delivery %d = %+v", i, d)
		}
		if want := fmt.Sprintf("<price>%d</price>", i); d.Value != want {
			t.Fatalf("delivery %d value = %q, want %q", i, d.Value, want)
		}
	}
}

// TestMalformedDocument: the publisher gets a structured error naming the
// consumed document number; every subscriber gets a gap marker for that
// same document — an aborted evaluation must never be a silent stall.
func TestMalformedDocument(t *testing.T) {
	b := New(Config{})
	r1, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Subscribe("ticker", "//nothing/here")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Publish(context.Background(), "ticker", feedDoc(3), true); err != nil {
		t.Fatal(err)
	}
	_, err = b.Publish(context.Background(), "ticker",
		[]byte("<feed><trade><price>1</price></trade><broken"), true)
	var pe *publishError
	if !errors.As(err, &pe) {
		t.Fatalf("publish of malformed XML: err = %v, want *publishError", err)
	}
	if pe.seq != 2 {
		t.Fatalf("failed doc seq = %d, want 2", pe.seq)
	}
	// A later well-formed document still evaluates normally.
	if pub, err := b.Publish(context.Background(), "ticker", feedDoc(2), true); err != nil || pub.Results != 2 {
		t.Fatalf("publish after failure = %+v, %v", pub, err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{r1.ID, r2.ID} {
		sub, err := b.subscription("ticker", id)
		if err != nil {
			t.Fatal(err)
		}
		ds := drainSub(t, sub)
		var gaps []Delivery
		for _, d := range ds {
			if d.Type == DeliveryGap {
				gaps = append(gaps, d)
			}
		}
		if len(gaps) != 1 || gaps[0].DocSeq != 2 {
			t.Fatalf("sub %s: gaps = %+v, want one gap for doc 2", id, gaps)
		}
		if !strings.Contains(gaps[0].Reason, "document aborted") {
			t.Fatalf("sub %s: gap reason = %q", id, gaps[0].Reason)
		}
	}
	m := b.Metrics()
	cm := m.Channels["ticker"]
	if cm.DocsFailed != 1 || cm.DocsIn != 3 {
		t.Fatalf("channel metrics = %+v, want 3 docs in / 1 failed", cm)
	}
}

// TestIdleRingsHoldNothing: a ring holds only what is queued. A hundred
// subscriptions behind 16,384-slot rings that receive nothing grow the heap
// by under 1 MB, where preallocated rings would take 100 × 16,384 × 160 B.
func TestIdleRingsHoldNothing(t *testing.T) {
	b := New(Config{RingSize: 1 << 14})
	defer b.Shutdown(context.Background())
	if _, err := b.Publish(context.Background(), "idle", feedDoc(1), true); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		if _, err := b.Subscribe("idle", "//nothing/here"); err != nil {
			t.Fatal(err)
		}
	}
	pub, err := b.Publish(context.Background(), "idle", feedDoc(50), true)
	if err != nil || pub.Results != 0 {
		t.Fatalf("publish = %+v, %v; want no results", pub, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("100 idle subscriptions grew the heap by %d bytes", grew)
	}
}

// TestSlowConsumerDrop: with PolicyDrop and a tiny ring, an unread
// subscription loses results across an explicit gap marker counting the
// coalesced losses — and the channel never stalls.
func TestSlowConsumerDrop(t *testing.T) {
	b := New(Config{RingSize: 4, Policy: PolicyDrop})
	resp, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	// 20 results into a 4-slot ring with no consumer: 4 buffered, the rest
	// coalesce into one pending gap delivered at end-of-stream.
	pub, err := b.Publish(context.Background(), "ticker", feedDoc(20), true)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Results >= 20 {
		t.Fatalf("publish claims %d deliveries; ring holds 4", pub.Results)
	}
	sub, err := b.subscription("ticker", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := drainSub(t, sub)
	var results, droppedTotal int64
	var sawGap bool
	for _, d := range ds {
		switch d.Type {
		case DeliveryResult:
			results++
		case DeliveryGap:
			sawGap = true
			droppedTotal += d.Dropped
		}
	}
	if !sawGap {
		t.Fatalf("no gap marker in %+v", ds)
	}
	if results+droppedTotal != 20 {
		t.Fatalf("results %d + dropped %d != 20", results, droppedTotal)
	}
}

// TestSlowConsumerBlock: with PolicyBlock a slow consumer loses nothing —
// the evaluation waits for ring space.
func TestSlowConsumerBlock(t *testing.T) {
	b := New(Config{RingSize: 2, Policy: PolicyBlock})
	resp, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.subscription("ticker", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	const matches = 50
	var got []Delivery
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for {
			d, ok, err := sub.ring.next(ctx)
			if err != nil || !ok {
				return
			}
			got = append(got, d)
			time.Sleep(100 * time.Microsecond) // slower than the producer
		}
	}()
	pub, err := b.Publish(context.Background(), "ticker", feedDoc(matches), true)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Results != matches {
		t.Fatalf("publish delivered %d, want %d", pub.Results, matches)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rg.Wait()
	if len(got) != matches {
		t.Fatalf("consumer got %d deliveries, want %d", len(got), matches)
	}
	for i, d := range got {
		if d.Type != DeliveryResult || d.Seq != int64(i) {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
}

// TestGracefulDrainDeliversEverything: documents queued asynchronously are
// all evaluated and delivered by Shutdown — the drain guarantee.
func TestGracefulDrainDeliversEverything(t *testing.T) {
	b := New(Config{RingSize: 4096})
	resp, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	const docs, perDoc = 20, 7
	for i := 0; i < docs; i++ {
		if _, err := b.Publish(context.Background(), "ticker", feedDoc(perDoc), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	sub, err := b.subscription("ticker", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	ds := drainSub(t, sub)
	if len(ds) != docs*perDoc {
		t.Fatalf("drained %d deliveries, want %d", len(ds), docs*perDoc)
	}
	// Per-document ordering: doc_seq ascending, seq restarting per doc.
	for i, d := range ds {
		wantDoc := int64(i/perDoc + 1)
		wantSeq := int64(i % perDoc)
		if d.DocSeq != wantDoc || d.Seq != wantSeq {
			t.Fatalf("delivery %d = doc %d seq %d, want doc %d seq %d", i, d.DocSeq, d.Seq, wantDoc, wantSeq)
		}
	}
	// Publishing after shutdown fails cleanly.
	if _, err := b.Publish(context.Background(), "ticker", feedDoc(1), true); !errors.Is(err, ErrShutdown) {
		t.Fatalf("publish after shutdown: err = %v, want ErrShutdown", err)
	}
}

// TestShutdownDeadlineCancelsInFlight: a shutdown whose context expires
// force-cancels in-flight evaluations instead of waiting forever on a
// blocked ring.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	b := New(Config{RingSize: 1, Policy: PolicyBlock})
	resp, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	// No consumer: the evaluation blocks after the first result.
	if _, err := b.Publish(context.Background(), "ticker", feedDoc(100), false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = b.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v; force-cancel did not unblock the drain", elapsed)
	}
	// The parked document was canceled through the gap path: its stream
	// holds what the ring took, then a gap marker for document 1, and then
	// ends (the ring closes: the wire's "end" line).
	sub, err := b.subscription("ticker", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	ds := drainSub(t, sub)
	if len(ds) == 0 {
		t.Fatal("the parked subscription's stream is empty")
	}
	if last := ds[len(ds)-1]; last.Type != DeliveryGap || last.DocSeq != 1 {
		t.Fatalf("the stream ends with %+v, want a gap marker for document 1", last)
	}
	for _, d := range ds[:len(ds)-1] {
		if d.Type != DeliveryResult || d.DocSeq != 1 {
			t.Fatalf("before the gap: %+v, want results of document 1", d)
		}
	}
}

// TestConcurrentChurnAndTraffic: subscriptions churn (add, remove, replace)
// from several goroutines while publishers keep documents in flight on two
// channels. Exercised under -race in CI; the invariant checked here is that
// every delivery a surviving subscription received is well-formed and its
// doc numbers are non-decreasing (per-channel evaluation is ordered).
func TestConcurrentChurnAndTraffic(t *testing.T) {
	b := New(Config{RingSize: 4096, Workers: 4})
	channels := []string{"alpha", "beta"}
	queries := []string{
		"//trade/price",
		"//trade[symbol='ACME']/price",
		"//trade/symbol/text()",
		"//feed//price",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Publishers run under a cancelable context: nothing consumes the
	// churned subscriptions' rings, so once one fills, block-policy
	// back-pressure (correctly) stalls evaluation and with it synchronous
	// publishes — on a fast enough run the test would hang at wg.Wait
	// without the cancel.
	pubCtx, cancelPubs := context.WithCancel(context.Background())
	defer cancelPubs()

	// Publishers: steady documents on both channels.
	for _, ch := range channels {
		wg.Add(1)
		go func(ch string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := b.Publish(pubCtx, ch, feedDoc(3), true)
				if err != nil && !errors.Is(err, ErrShutdown) && !errors.Is(err, ErrQueueFull) &&
					!errors.Is(err, context.Canceled) {
					t.Errorf("publish: %v", err)
					return
				}
			}
		}(ch)
	}

	// Churners: subscribe, maybe replace, maybe unsubscribe, repeat.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 60; i++ {
				ch := channels[rng.Intn(len(channels))]
				resp, err := b.Subscribe(ch, queries[rng.Intn(len(queries))])
				if err != nil {
					if errors.Is(err, ErrShutdown) {
						return
					}
					t.Errorf("subscribe: %v", err)
					return
				}
				if rng.Intn(2) == 0 {
					if _, err := b.Replace(ch, resp.ID, queries[rng.Intn(len(queries))]); err != nil && !errors.Is(err, ErrShutdown) {
						t.Errorf("replace: %v", err)
						return
					}
				}
				if rng.Intn(3) > 0 {
					if err := b.Unsubscribe(ch, resp.ID); err != nil && !errors.Is(err, ErrShutdown) {
						t.Errorf("unsubscribe: %v", err)
						return
					}
				}
			}
		}(g)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	cancelPubs()
	// Wait for churners and publishers BEFORE shutdown so late subscribes
	// aren't racing it (they'd get ErrShutdown, which is also fine).
	wg.Wait()
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Surviving subscriptions: deliveries well-formed, doc numbers
	// non-decreasing, seq dense per document.
	m := b.Metrics()
	for _, ch := range channels {
		c, err := b.channelFor(ch, false)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		subs := append([]*subscription(nil), c.subs...)
		c.mu.Unlock()
		for _, sub := range subs {
			ds := drainSub(t, sub)
			lastDoc, lastSeq := int64(0), int64(-1)
			for _, d := range ds {
				if d.Type != DeliveryResult {
					continue
				}
				if d.DocSeq < lastDoc {
					t.Fatalf("sub %s: doc %d after doc %d", sub.id, d.DocSeq, lastDoc)
				}
				if d.DocSeq > lastDoc {
					lastDoc, lastSeq = d.DocSeq, -1
				}
				if d.Seq != lastSeq+1 {
					t.Fatalf("sub %s: doc %d seq %d after seq %d", sub.id, d.DocSeq, d.Seq, lastSeq)
				}
				lastSeq = d.Seq
			}
		}
	}
	if m.Totals.DocsIn == 0 {
		t.Fatal("no documents made it through the churn run")
	}
}

// TestShutdownWaitsForDeletedChannelDrain: a graceful Shutdown right after
// DeleteChannel still lets the deleted channel's queued documents evaluate
// and deliver — deletion must not demote them to force-canceled.
func TestShutdownWaitsForDeletedChannelDrain(t *testing.T) {
	b := New(Config{RingSize: 4096})
	resp, err := b.Subscribe("doomed", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.subscription("doomed", resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	const docs, perDoc = 8, 5
	for i := 0; i < docs; i++ {
		if _, err := b.Publish(context.Background(), "doomed", feedDoc(perDoc), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeleteChannel("doomed"); err != nil {
		t.Fatal(err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ds := drainSub(t, sub)
	var results int
	for _, d := range ds {
		if d.Type == DeliveryGap {
			t.Fatalf("queued doc aborted across delete+shutdown: %+v", d)
		}
		if d.Type == DeliveryResult {
			results++
		}
	}
	if results != docs*perDoc {
		t.Fatalf("drained %d results, want %d", results, docs*perDoc)
	}
}

// TestUnsubscribeMidFlight: removing a subscription while a document is
// evaluating neither aborts the document nor strands the other
// subscribers.
func TestUnsubscribeMidFlight(t *testing.T) {
	b := New(Config{RingSize: 1, Policy: PolicyBlock})
	victim, err := b.Subscribe("ticker", "//trade/price")
	if err != nil {
		t.Fatal(err)
	}
	keeper, err := b.Subscribe("ticker", "//trade/symbol/text()")
	if err != nil {
		t.Fatal(err)
	}
	// The victim has no consumer and a 1-slot ring: the evaluation blocks
	// on its second result until the unsubscribe closes the ring.
	done := make(chan error, 1)
	go func() {
		_, err := b.Publish(context.Background(), "ticker", feedDoc(10), true)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := b.Unsubscribe("ticker", victim.ID); err != nil {
		t.Fatal(err)
	}
	// The keeper is also blocked (ring of 1); drain it.
	ksub, err := b.subscription("ticker", keeper.ID)
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for kept < 10 {
		d, ok, nerr := ksub.ring.next(ctx)
		if nerr != nil || !ok {
			t.Fatalf("keeper drain ended early after %d (ok=%v err=%v)", kept, ok, nerr)
		}
		if d.Type == DeliveryResult {
			kept++
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("publish aborted by mid-flight unsubscribe: %v", err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPublishReportsEventsWithoutSubscriptions: a document published to a
// channel with no subscription is still scanned, and both the publish
// response and the document's trace count its events.
func TestPublishReportsEventsWithoutSubscriptions(t *testing.T) {
	b := New(Config{TraceSample: 1})
	defer b.Shutdown(context.Background())
	pub, err := b.Publish(context.Background(), "empty", []byte("<a><b/><b/></a>"), true)
	if err != nil {
		t.Fatal(err)
	}
	// StartDocument, three start and three end tags, EndDocument.
	const events = 8
	if pub.Results != 0 || pub.Events != events {
		t.Fatalf("publish = %+v, want 0 results and %d events", pub, events)
	}
	deadline := time.Now().Add(10 * time.Second)
	for b.Tracer().Emitted() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := b.Tracer().Recent()
	if len(recs) != 1 || recs[0].Events != events {
		t.Fatalf("traces %+v, want one counting %d events", recs, events)
	}
}
