package server

import (
	"context"
	"fmt"
	"time"
)

// WaitDetached blocks until subscription id of channel ch has no attached
// consumer: it takes the consumer slot, waiting for the holder to let go,
// and gives it straight back. A test that severs a stream calls it before
// publishing what the consumer is to miss, so the old connection's handler
// has dequeued its last delivery before those documents arrive. On a
// timeout the waiter still gives the slot back once it gets it.
func WaitDetached(b *Broker, ch, id string) error {
	sub, err := b.subscription(ch, id)
	if err != nil {
		return err
	}
	freed := make(chan struct{})
	go func() {
		sub.ring.consumer.Lock()
		sub.ring.detach()
		close(freed)
	}()
	select {
	case <-freed:
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("subscription %s/%s: consumer still attached after 10s", ch, id)
	}
}

// nextQueued dequeues like the subscription's consumer, asleep in next while
// the ring is empty, and reports how many deliveries were still queued
// behind the one it took.
func nextQueued(ctx context.Context, r *subRing) (d Delivery, queued int, err error) {
	d, _, err = r.next(ctx)
	r.mu.Lock()
	queued = r.n
	r.mu.Unlock()
	return d, queued, err
}
