package server

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzResumeFromRing checks the ring's resume rule (covers) against a model
// of one subscription: random pushes (which a full PolicyDrop ring drops),
// dequeues by the consumer's connection, lines the consumer reads, and
// severs. At each sever the consumer's token is the position of the lines
// it read; the rest of what the ring handed out is lost in flight. Whenever
// the ring claims to cover the token, what it yields must be the
// uninterrupted stream's suffix after the token with nothing lost since:
// the consumer lacks nothing the ring handed out, and the ring yields every
// result pushed after the last one handed out or dropped before the token,
// in order, with no gap marker — which is what a replay would give. And when
// nothing was ever dropped and the consumer holds everything handed out,
// the ring must claim it. The first byte picks the ring size (1–4) and the
// policy.
func FuzzResumeFromRing(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0x80, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{4, 0, 0, 0, 0, 1, 2, 3, 1, 0, 0, 1, 2, 2, 3, 3})
	f.Add([]byte{5, 0, 0x80, 0, 1, 1, 0, 0, 0x80, 0, 1, 2, 2, 2, 3, 1, 1, 1, 2, 2, 2, 3})
	f.Add([]byte{2, 0, 0, 1, 2, 0x80, 0, 0, 2, 3, 1, 1, 2, 2, 3})
	// A drop ring of two: a gap marker queued after the consumer's last
	// line, with nothing pending.
	f.Add([]byte{5, 0, 0, 0, 1, 1, 2, 2, 0, 3})
	// A second gap over the same document, handed but lost in flight: it
	// leaves the position where the first one put it.
	f.Add([]byte{5, 0, 0, 0, 1, 0, 1, 1, 2, 2, 2, 0, 1, 3})
	// A result between two gaps over the same document: the second gap must
	// not move the position back to where the first one put it.
	f.Add([]byte{5, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 2, 2, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		policy := PolicyBlock
		if ops[0]&4 != 0 {
			policy = PolicyDrop
		}
		r := newSubRing(1+int(ops[0]&3), policy, nil)
		var (
			// pushed counts every result offered; a result's NodeOffset is
			// its index in that lossless stream.
			pushed      int
			lastDropped = -1
			handed      []Delivery // everything the ring let go of, in order
			got         int        // how many of handed the consumer read
			doc         = int64(1)
			seq         int64
		)
		take := func() bool {
			d, ok := r.tryNext()
			if ok {
				handed = append(handed, d)
			}
			return ok
		}
		for i, op := range ops[1:] {
			switch op % 4 {
			case 0: // publish one result; the high bit starts a new document
				if op&0x80 != 0 {
					doc, seq = doc+1, 0
				}
				r.mu.Lock()
				full := r.n == r.size
				r.mu.Unlock()
				if full && policy == PolicyBlock {
					continue // the pusher would wait for the consumer
				}
				d := Delivery{Type: DeliveryResult, DocSeq: doc, Seq: seq, NodeOffset: int64(pushed)}
				seq++
				if delivered, _, err := r.push(context.Background(), d); err != nil || !delivered {
					lastDropped = pushed
				}
				pushed++
			case 1: // the consumer's connection dequeues
				take()
			case 2: // the consumer reads a line
				got = min(got+1, len(handed))
			case 3: // sever, and resume at the consumer's token
				var token Position
				for j := range got {
					token.Advance(&handed[j])
				}
				if !r.covers(token) {
					if lastDropped < 0 && got > 0 && got == len(handed) {
						t.Fatalf("op %d: nothing dropped and the consumer holds all %d handed deliveries, but the ring does not cover %+v", i, got, token)
					}
					// Replay: the consumer gets every result pushed, and the
					// ring is bled of what the replay superseded.
					for take() {
					}
					got = len(handed)
					continue
				}
				if got != len(handed) {
					t.Fatalf("op %d: ring covers %+v, but the consumer lacks %d handed deliveries", i, token, len(handed)-got)
				}
				next := lastDropped + 1
				for _, d := range handed {
					if d.Type == DeliveryResult {
						next = max(next, int(d.NodeOffset)+1)
					}
				}
				for take() {
					if d := handed[len(handed)-1]; d.Type != DeliveryResult || int(d.NodeOffset) != next {
						t.Fatalf("op %d: ring covers %+v and yields %+v, want pushed result %d", i, token, d, next)
					}
					next++
				}
				got = len(handed)
				if next != pushed {
					t.Fatalf("op %d: ring covers %+v but lost pushed results %d..%d", i, token, next, pushed-1)
				}
			}
		}
	})
}

// waitParked returns once a consumer is asleep in r.next.
func waitParked(r *subRing) {
	for {
		r.mu.Lock()
		parked := r.parked
		r.mu.Unlock()
		if parked {
			return
		}
		runtime.Gosched()
	}
}

// TestPushReportsWake: push reports a wake only when its delivery went to a
// consumer asleep in next — not when the ring already held one, not when no
// consumer waits, and not after the waiting consumer's context ended.
func TestPushReportsWake(t *testing.T) {
	r := newSubRing(8, PolicyBlock, nil)
	push := func(want bool) {
		t.Helper()
		if delivered, woke, err := r.push(context.Background(), Delivery{Type: DeliveryResult}); err != nil || !delivered || woke != want {
			t.Fatalf("push: delivered %v, woke %v, err %v; want a delivery and woke %v", delivered, woke, err, want)
		}
	}
	push(false) // no consumer
	r.tryNext()

	took := make(chan error)
	go func() {
		_, _, err := r.next(context.Background())
		took <- err
	}()
	waitParked(r)
	push(true)
	push(false) // the first is still queued, or its consumer is gone
	if err := <-took; err != nil {
		t.Fatal(err)
	}
	push(false) // queued deliveries, no consumer
	for _, ok := r.tryNext(); ok; _, ok = r.tryNext() {
	}
	push(false) // empty, no consumer

	r.tryNext()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		_, _, err := r.next(ctx)
		took <- err
	}()
	waitParked(r)
	cancel()
	if err := <-took; err == nil {
		t.Fatal("next returned without its context's error")
	}
	push(false) // the consumer's context ended
}

// TestFirstDeliveryHandedOff: on one processor, a consumer asleep in next
// takes a document's first delivery before the evaluator queues the second,
// because the evaluator yields to the consumer its first push woke. Without
// the yield the evaluator would queue all 500 first. The median over twenty
// documents tolerates the scheduler's occasional pick from its global queue,
// which resumes the evaluator first.
func TestFirstDeliveryHandedOff(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const docs, results = 20, 500
	b := New(Config{RingSize: 1 << 12})
	defer b.Shutdown(context.Background())
	sr, err := b.Subscribe("c", "//r")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.subscription("c", sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	received := make([]int, 0, docs) // deliveries the ring held at each document's first dequeue
	drained := make(chan error)
	go func() {
		for range docs {
			d, queued, err := nextQueued(ctx, sub.ring)
			if err == nil && d.Seq != 0 {
				err = fmt.Errorf("first dequeue of document %d has Seq %d", d.DocSeq, d.Seq)
			}
			received = append(received, queued+1)
			for i := 1; i < results && err == nil; i++ {
				_, _, err = sub.ring.next(ctx)
			}
			drained <- err
		}
	}()
	doc := []byte("<d>" + strings.Repeat("<r/>", results) + "</d>")
	for range docs {
		// The hand-off is for a consumer asleep in next: publish once it
		// is. Under -race on a loaded host the consumer was at times still
		// on its way there from the last document when the first push
		// came, which then woke nobody and queued all 500.
		waitParked(sub.ring)
		if _, err := b.Publish(ctx, "c", doc, true); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
	}
	sorted := slices.Sorted(slices.Values(received))
	if median := sorted[docs/2]; median != 1 {
		t.Fatalf("deliveries queued when the consumer took each document's first: median %d, want 1 (all: %v)", median, received)
	}
}
