package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Policy selects what a channel's evaluation worker does when a
// subscription's result ring is full — the slow-consumer policy.
type Policy int

const (
	// PolicyBlock applies back-pressure: the evaluation (and therefore the
	// whole channel's ingest queue) waits until the consumer frees ring
	// space. Nothing is ever lost, at the price of one slow subscriber
	// throttling the channel. Cancellation of the document's context (a
	// disconnected publisher, broker shutdown past its drain deadline)
	// unblocks the wait.
	PolicyBlock Policy = iota
	// PolicyDrop sheds load: the incoming delivery is discarded and the
	// consumer receives a gap marker — counting the coalesced losses — in
	// its place as soon as the ring has space again. The channel never
	// stalls on a slow subscriber.
	PolicyDrop
)

// ParsePolicy maps the wire/flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "block":
		return PolicyBlock, nil
	case "drop":
		return PolicyDrop, nil
	}
	return 0, fmt.Errorf("server: unknown slow-consumer policy %q (want block or drop)", s)
}

func (p Policy) String() string {
	if p == PolicyDrop {
		return "drop"
	}
	return "block"
}

// errSubClosed reports a push to a subscription whose ring was closed by
// Unsubscribe or broker shutdown. It never aborts a document evaluation —
// the worker skips the dead subscription and keeps serving the others.
var errSubClosed = errors.New("server: subscription closed")

// subRing is the bounded delivery buffer between a channel's evaluation
// worker and one subscription's (possibly absent, possibly slow) consumer:
// a mutex-guarded circular deque that holds at most size deliveries and
// only what is queued. It is allocated on the first push, grows by doubling
// up to its high-water mark and keeps that capacity; a popped slot is zeroed
// so it pins no Value. An idle subscription costs the struct and two
// channels, whatever size is.
//
// Concurrency contract: exactly one goroutine pushes at a time (a channel
// evaluates one document at a time, in arrival order), at most one consumer
// reads (it holds the consumer slot for as long as it is attached), and
// close may come from anywhere. A waiting side sleeps on its wake-up
// channel together with its context; each has capacity 1, so a wake-up is
// never lost and the waker never blocks, and a stale one costs the sleeper
// one more look.
//
// A consumer asleep in next is parked: it set the flag before it let go of
// mu, and the first queue after that clears it and tells the pusher that
// it posted the wake-up. The Go runtime readies a goroutine woken by a
// channel send on the sender's own processor, so the consumer would wait
// there until the pusher blocks or an idle processor's thread comes to
// take it (hundreds of microseconds on a virtual machine). The evaluator
// therefore yields once per document after a push that woke the consumer
// (channel.evaluate), and the consumer writes the document's first result
// at once.
//
//vitex:counters
type subRing struct {
	size   int    //vitex:plain set at construction, read-only afterwards
	policy Policy //vitex:plain set at construction, read-only afterwards
	// gaps counts gap markers actually delivered (channel-level metric).
	gaps *atomic.Int64

	mu sync.Mutex
	// buf[head], buf[head+1], ... (modulo len(buf)) are the n queued
	// deliveries; guarded by mu.
	buf    []Delivery
	head   int  //vitex:guardedby=mu
	n      int  //vitex:guardedby=mu
	closed bool //vitex:guardedby=mu
	// dropped/dropFrom/dropSeq accumulate a pending slow-consumer gap:
	// results discarded since the last queued marker, and the document
	// cursor range [dropFrom, dropSeq] the losses span — the range a
	// consumer needs to heal the gap by WAL replay.
	dropped  int64 //vitex:guardedby=mu
	dropFrom int64 //vitex:guardedby=mu
	dropSeq  int64 //vitex:guardedby=mu
	// handed is the stream position of everything popped so far, by the
	// rule a consumer's resume token follows (Position.Advance); exact
	// reports that the last pop moved it, so handed names one point of the
	// stream. (A closed ring's final gap marker is not popped, and a closed
	// ring serves no resume.)
	handed Position //vitex:guardedby=mu
	exact  bool     //vitex:guardedby=mu
	// parked reports that the consumer is asleep in next with nothing
	// queued and no wake-up posted since it went to sleep.
	parked bool //vitex:guardedby=mu

	// consumer is held by the one attached consumer for as long as it reads;
	// a second attach is refused rather than queued (attach). It is a mutex
	// rather than a flag so a test can block until the slot is free.
	consumer sync.Mutex

	ready chan struct{} // wakes the consumer: a delivery was queued, or close
	space chan struct{} // wakes a blocked pusher: a slot was freed, or close
}

func newSubRing(size int, policy Policy, gaps *atomic.Int64) *subRing {
	return &subRing{
		size:   max(size, 1),
		policy: policy,
		gaps:   gaps,
		ready:  make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
	}
}

// wake posts a wake-up on ch unless one is already pending.
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// takePendingGap renders the accumulated slow-consumer losses as a marker
// carrying the cursor range they span, so a consumer can resume from
// FromCursor to heal the hole from the channel's WAL, and resets the
// accounting.
//
//vitex:locked
func (r *subRing) takePendingGap() Delivery {
	d := Delivery{
		Type:       DeliveryGap,
		DocSeq:     r.dropSeq,
		Dropped:    r.dropped,
		FromCursor: r.dropFrom,
		ToCursor:   r.dropSeq,
		Reason:     GapSlowConsumer,
	}
	r.dropped, r.dropFrom = 0, 0
	return d
}

// isClosed reports whether the subscription ended (unsubscribe/shutdown).
func (r *subRing) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// queue appends d; the caller has checked that the ring is not full. It is
// the one point deliveries enter the ring, which keeps the gap metric
// honest. woke reports that the consumer was parked in next: this queue
// posted its wake-up.
//
//vitex:locked
func (r *subRing) queue(d Delivery) (woke bool) {
	if r.n == len(r.buf) {
		grown := make([]Delivery, min(max(2*len(r.buf), 8), r.size))
		copy(grown[copy(grown, r.buf[r.head:]):], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = d
	r.n++
	if d.Type == DeliveryGap && r.gaps != nil {
		r.gaps.Add(1)
	}
	wake(r.ready)
	woke, r.parked = r.parked, false
	return woke
}

// pop removes the oldest delivery; the caller has checked that there is one.
//
//vitex:locked
func (r *subRing) pop() Delivery {
	d := r.buf[r.head]
	r.buf[r.head] = Delivery{}
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	r.exact = r.handed.Advance(&d)
	wake(r.space)
	return d
}

// attach takes the consumer slot; false means another consumer holds it.
// Only the holder dequeues, and it lets go after its last pop, so the handed
// position a new holder's covers reads is the old holder's last.
func (r *subRing) attach() bool { return r.consumer.TryLock() }

// detach releases the consumer slot.
func (r *subRing) detach() { r.consumer.Unlock() }

// covers reports whether the ring alone can serve a consumer resuming at
// token: token is the position the ring has handed out and names one point
// of the stream, something was handed out (by this process: a restart
// starts from zero), and nothing has been lost since — no pending drop and
// no queued gap marker, which a replay would heal or re-derive. Then the
// consumer holds everything before the queued deliveries, and reading on
// from the ring gives it exactly what an uninterrupted consumer gets. A
// closed ring covers nothing, so a resume of an ended subscription takes
// the replay path and its errors.
func (r *subRing) covers(token Position) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || token != r.handed || token == (Position{}) || !r.exact || r.dropped > 0 {
		return false
	}
	for i := range r.n {
		if r.buf[(r.head+i)%len(r.buf)].Type == DeliveryGap {
			return false
		}
	}
	return true
}

// push delivers d, honoring the slow-consumer policy. delivered reports
// whether d itself was queued — false when PolicyDrop folded it into a
// pending gap marker. woke reports that what push queued (d, or a pending
// gap marker before it) woke a consumer asleep in next. err is errSubClosed
// when the subscription is gone, or ctx.Err() when a blocked push was
// canceled. A pending gap marker is always queued before anything newer, so
// consumers observe losses in stream position.
func (r *subRing) push(ctx context.Context, d Delivery) (delivered, woke bool, err error) {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return false, woke, errSubClosed
		}
		if r.dropped > 0 && r.n < r.size {
			woke = r.queue(r.takePendingGap())
		}
		if r.dropped == 0 && r.n < r.size {
			woke = r.queue(d) || woke
			r.mu.Unlock()
			return true, woke, nil
		}
		if r.policy == PolicyDrop {
			r.drop(d)
			r.mu.Unlock()
			return false, woke, nil
		}
		r.mu.Unlock()
		select {
		case <-r.space:
		case <-ctx.Done():
			return false, woke, ctx.Err()
		}
		r.mu.Lock()
	}
}

// pushGap best-effort delivers an aborted-document gap marker. It blocks
// like a normal delivery while the document's context is alive; when the
// context is already dead (cancellation was the abort cause) the marker is
// folded into the pending-gap accounting instead, so the loss stays visible
// on the stream even if its specific reason is coalesced away.
func (r *subRing) pushGap(ctx context.Context, d Delivery) {
	if _, _, err := r.push(ctx, d); err != nil && !errors.Is(err, errSubClosed) {
		r.mu.Lock()
		r.drop(d)
		r.mu.Unlock()
	}
}

// drop folds d into the pending gap, widening its cursor range.
//
//vitex:locked
func (r *subRing) drop(d Delivery) {
	r.dropped++
	if d.DocSeq > 0 {
		if r.dropFrom == 0 {
			r.dropFrom = d.DocSeq
		}
		r.dropSeq = d.DocSeq
	}
}

// closeRing marks the subscription dead and wakes a blocked pusher and the
// consumer. Queued deliveries remain readable; the consumer drains them,
// then any pending gap, then sees end-of-stream.
func (r *subRing) closeRing() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	wake(r.ready)
	wake(r.space)
}

// next blocks for the subscription's next delivery. ok=false means the
// subscription closed and everything queued (including a final pending
// gap marker) has been delivered. err is non-nil only for ctx cancellation
// (the consumer going away, not the subscription).
func (r *subRing) next(ctx context.Context) (d Delivery, ok bool, err error) {
	r.mu.Lock()
	for {
		// Queued deliveries win over close: a closed ring drains fully.
		if r.n > 0 {
			d = r.pop()
			r.mu.Unlock()
			return d, true, nil
		}
		if r.closed {
			if r.dropped > 0 {
				d = r.takePendingGap()
				if r.gaps != nil {
					r.gaps.Add(1)
				}
				r.mu.Unlock()
				return d, true, nil
			}
			r.mu.Unlock()
			return Delivery{}, false, nil
		}
		r.parked = true
		r.mu.Unlock()
		select {
		case <-r.ready:
		case <-ctx.Done():
			r.mu.Lock()
			r.parked = false
			r.mu.Unlock()
			return Delivery{}, false, ctx.Err()
		}
		r.mu.Lock()
		r.parked = false
	}
}

// tryNext returns an immediately-available delivery, if any. The HTTP layer
// uses it to batch NDJSON flushes: drain what is ready, then flush once.
func (r *subRing) tryNext() (Delivery, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return Delivery{}, false
	}
	return r.pop(), true
}
