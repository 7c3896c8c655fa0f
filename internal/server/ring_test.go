package server

import (
	"context"
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
				if delivered, err := r.push(context.Background(), d); err != nil || !delivered {
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
