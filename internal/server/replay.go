// Cursor replay: how a reconnecting or late-joining subscriber catches up
// when its subscription's ring cannot serve it.
//
// A resume token is a Position (channel, cursor, seen): every document at a
// cursor strictly below `cursor` was fully received, plus the first `seen`
// result deliveries of document `cursor` itself (a stream can sever
// mid-document). A resume whose token is exactly what the ring has handed
// out, with nothing dropped since, reads on from the ring and never comes
// here (subRing.covers). Every other resume — after a restart, a `from=0`
// late joiner, a token behind the handed position (lines lost in flight),
// a ring that dropped — replays: it re-reads the WAL from the token and
// re-evaluates each document through the channel's live QuerySet — the same
// machines, the same evaluation options, the same per-document Seq
// numbering as the original delivery — filtered to the one resuming
// subscription. Replayed deliveries are therefore byte-identical
// (Value/Seq/NodeOffset, in order) to what an uninterrupted consumer
// received, which the replay-equivalence test pins. The one exception is a
// subscription whose own query was replaced: the documents up to the
// replace cursor went through a query the set no longer holds, so the
// resume gets one GapReplaced marker over them instead.
//
// The handoff to the live ring is race-free by construction: the plan
// captures, under the channel lock, the QuerySet view AND the WAL tip (the
// last durable cursor). Every document ≤ tip is on disk (appended before
// evaluation), so replay covers it; every ring delivery ≤ tip is skipped;
// ring deliveries > tip are delivered live. No document can fall between
// the two regimes, and none is delivered by both. During replay the ring is
// bled opportunistically (entries ≤ tip discarded as they surface) so a
// block-policy channel keeps flowing while a consumer catches up. Those
// dequeues advance the ring's handed position past what the consumer holds,
// so a resume from a token taken mid-replay replays again.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	vitex "repro"
)

// replayPlan pins one replay: the membership view and subscription index in
// force when the consumer attached, the WAL tip it must read through, the
// oldest cursor still retained and the cursor of the subscription's last
// query replacement.
type replayPlan struct {
	view       vitex.QuerySetView
	idx        int
	tip        int64
	oldest     int64
	replacedAt int64
	wal        *walLog
}

// replayPlan captures the replay boundary for sub under the channel lock.
func (c *channel) replayPlan(sub *subscription) (replayPlan, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return replayPlan{}, ErrNotDurable
	}
	idx := c.indexOfLocked(sub)
	if idx < 0 {
		return replayPlan{}, ErrNoSubscription
	}
	return replayPlan{
		view:       c.qs.View(),
		idx:        idx,
		tip:        c.nextDoc,
		oldest:     c.wal.oldest(),
		replacedAt: sub.replacedAt,
		wal:        c.wal,
	}, nil
}

// replay streams the catch-up deliveries for sub: documents in
// [from, plan.tip], skipping the first `seen` results of document `from`,
// each emitted through emit in delivery order, with docDone called after
// each document (the consumer flushes there). Unreadable spans (retention,
// corruption) become gap markers carrying the skipped cursor range. While
// replaying it bleeds sub's ring of deliveries the replay supersedes
// (DocSeq ≤ tip) and returns the first live delivery it had to hold back,
// if any. emit and docDone errors (a gone consumer) abort the replay.
func (c *channel) replay(ctx context.Context, sub *subscription, plan replayPlan, from, seen int64, emit func(Delivery) error, docDone func() error) (held *Delivery, err error) {
	if from < 1 {
		from = 1
		seen = 0
	}
	start := from
	if plan.oldest > start {
		// The tail the consumer wants is gone to retention: say exactly
		// which cursors cannot be replayed, then serve what remains.
		if plan.oldest > plan.tip {
			return nil, nil
		}
		if err := emit(Delivery{
			Type:       DeliveryGap,
			DocSeq:     plan.oldest - 1,
			FromCursor: start,
			ToCursor:   plan.oldest - 1,
			Reason:     GapRetention,
		}); err != nil {
			return nil, err
		}
		c.gaps.Add(1)
		start = plan.oldest
		seen = 0
	}
	if start <= plan.replacedAt {
		// The documents up to the replace went through the old query, which
		// the view no longer holds: say which, then replay the rest.
		end := min(plan.replacedAt, plan.tip)
		if err := emit(Delivery{
			Type:       DeliveryGap,
			DocSeq:     end,
			FromCursor: start,
			ToCursor:   end,
			Reason:     GapReplaced,
		}); err != nil {
			return nil, err
		}
		c.gaps.Add(1)
		start = end + 1
		seen = 0
	}
	if start > plan.tip {
		return nil, nil
	}

	opts := vitex.Options{Context: ctx}
	iterErr := plan.wal.iterate(start, plan.tip, func(cursor int64, payload []byte) error {
		if sub.ring.isClosed() {
			return errSubClosed
		}
		skip := int64(0)
		if cursor == from {
			skip = seen
		}
		var emitted int64
		_, evalErr := plan.view.Evaluate(bytes.NewReader(payload), opts, func(sr vitex.SetResult) error {
			if sr.QueryIndex != plan.idx {
				return nil
			}
			if emitted++; emitted <= skip {
				return nil
			}
			c.replayResults.Add(1)
			if werr := emit(Delivery{
				Type:        DeliveryResult,
				DocSeq:      cursor,
				Seq:         sr.Seq,
				NodeOffset:  sr.NodeOffset,
				Value:       sr.Value,
				ConfirmedAt: sr.ConfirmedAt,
				DeliveredAt: sr.DeliveredAt,
			}); werr != nil {
				return fmt.Errorf("%w: %v", errReplayEmit, werr)
			}
			return nil
		})
		c.replayDocs.Add(1)
		if evalErr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(evalErr, errReplayEmit) {
				return evalErr
			}
			// The document failed evaluation when it was published too (the
			// WAL stores what was accepted, not what parsed); reproduce the
			// live behavior — a gap marker in stream position.
			c.gaps.Add(1)
			if err := emit(Delivery{Type: DeliveryGap, DocSeq: cursor, Reason: "document aborted: " + evalErr.Error()}); err != nil {
				return err
			}
		}
		// Bleed the ring between documents: everything ≤ tip is superseded
		// by this replay; the first live delivery > tip is held for the
		// caller. Keeps block-policy pushers moving while we catch up.
		if held == nil {
			for {
				d, ok := sub.ring.tryNext()
				if !ok {
					break
				}
				if deliveryEnd(d) > plan.tip {
					held = &d
					break
				}
				// Superseded by this replay: it will never reach a wire.
				d.retireTrace()
			}
		}
		return docDone()
	})
	if iterErr != nil {
		var ce *WALCorruptionError
		switch {
		case errors.As(iterErr, &ce):
			// An unreadable span mid-log: the consumer learns exactly what
			// it cannot have, then continues live. (Only external corruption
			// or a retention race lands here; a torn tail was truncated at
			// recovery.)
			c.gaps.Add(1)
			if err := emit(Delivery{
				Type:       DeliveryGap,
				DocSeq:     plan.tip,
				FromCursor: start,
				ToCursor:   plan.tip,
				Reason:     GapUnreadable,
			}); err != nil {
				return held, err
			}
		case errors.Is(iterErr, errSubClosed):
			return held, nil // ring closed: the live loop ends the stream
		default:
			return held, iterErr
		}
	}
	return held, nil
}

// errReplayEmit wraps a consumer-side write failure so replay can tell it
// apart from a document that failed evaluation.
var errReplayEmit = errors.New("server: replay emit failed")
