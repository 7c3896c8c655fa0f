// Wire types of the vitexd protocol: the JSON bodies exchanged over the
// broker's HTTP API. The `client` package decodes exactly these structs, so
// the daemon, the Go client, the load generator and the equivalence tests
// can never drift on field names.
//
// The protocol is deliberately plain HTTP + NDJSON — no custom framing —
// so any language with an HTTP client can publish documents and consume
// subscription streams:
//
//	POST   /channels/{ch}/subscriptions          body: XPath text   -> SubscribeResponse
//	PUT    /channels/{ch}/subscriptions/{id}     body: XPath text   -> SubscribeResponse
//	DELETE /channels/{ch}/subscriptions/{id}                        -> 204
//	POST   /channels/{ch}/documents              body: XML document -> PublishResponse
//	GET    /channels/{ch}/subscriptions/{id}/results                -> NDJSON Delivery stream
//	DELETE /channels/{ch}                                           -> 204 (drain + remove)
//	GET    /metrics                                                 -> MetricsResponse
//	GET    /healthz                                                 -> 200 "ok"
//
// Resume (durable brokers): the results route accepts `?from=C&seen=K` — a
// resume token. C is a document cursor (the per-channel DocSeq every
// delivery carries), K counts result deliveries already received for
// document C. The server replays documents C..tip from the channel's
// write-ahead log through the live QuerySet — skipping the first K results
// of document C — then hands off to the live stream with no duplicate and
// no missing delivery at the boundary. `from=0` replays everything the log
// retains (a late joiner's full catch-up). Cursors older than retention
// are reported as one gap marker carrying the unavailable range
// [FromCursor, ToCursor].
//
// The result stream is the one hot route. The server writes its lines with
// AppendDelivery, without reflection, and the bytes equal encoding/json's
// encoding of Delivery. The client reads them with ParseDelivery, which
// decodes exactly what encoding/json decodes into a Delivery: the server's
// own lines on a reflection-free fast path, any other line through
// encoding/json (codec.go). FuzzDeliveryCodec holds both directions to
// encoding/json, which the other routes use.
package server

import (
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Delivery kinds; see Delivery.Type.
const (
	// DeliveryResult is one query solution for the subscription.
	DeliveryResult = "result"
	// DeliveryGap marks a hole in the result stream: either results were
	// dropped because the consumer fell behind a drop-policy ring (Dropped
	// counts them), or a document's evaluation aborted mid-stream (Reason
	// explains; results of that document may be partial). A subscriber
	// never loses deliveries silently — it loses them across a gap marker.
	DeliveryGap = "gap"
	// DeliveryEnd is the final line of a result stream: the subscription
	// was removed or the broker shut down, and everything buffered has been
	// delivered.
	DeliveryEnd = "end"
)

// Gap reasons.
const (
	GapSlowConsumer = "slow consumer"
	// GapRetention marks a replay request older than the oldest retained
	// WAL cursor: documents in [FromCursor, ToCursor] can no longer be
	// replayed.
	GapRetention = "cursor beyond retention"
	// GapUnreadable marks a replay span lost to log corruption or a
	// retention race: documents in [FromCursor, ToCursor] may be missing.
	GapUnreadable = "wal unreadable"
	// GapReplaced marks a replay span from before the subscription's query
	// was last replaced: documents in [FromCursor, ToCursor] were evaluated
	// through a query replay no longer has, so they are not replayed.
	GapReplaced = "query replaced"
)

// Delivery is one NDJSON line of a subscription result stream.
type Delivery struct {
	Type string `json:"type"`
	// DocSeq is the 1-based arrival number of the document (per channel)
	// this delivery belongs to. For a slow-consumer gap it is the document
	// of the last dropped result.
	DocSeq int64 `json:"doc_seq,omitempty"`
	// Seq, NodeOffset, Value, ConfirmedAt and DeliveredAt mirror the
	// library's Result fields for Type "result".
	Seq         int64  `json:"seq"`
	NodeOffset  int64  `json:"node_offset"`
	Value       string `json:"value,omitempty"`
	ConfirmedAt int64  `json:"confirmed_at,omitempty"`
	DeliveredAt int64  `json:"delivered_at,omitempty"`
	// Dropped counts the results coalesced into a gap marker (0 when the
	// gap marks an aborted document rather than a slow consumer).
	Dropped int64 `json:"dropped,omitempty"`
	// FromCursor/ToCursor bound the document cursors a gap marker spans:
	// results for documents in [FromCursor, ToCursor] may have been lost
	// (slow-consumer drops) or be unavailable (retention, corruption). A
	// consumer heals a drop gap by resuming with from=FromCursor&seen=0.
	FromCursor int64 `json:"from_cursor,omitempty"`
	ToCursor   int64 `json:"to_cursor,omitempty"`
	// Reason explains a gap.
	Reason string `json:"reason,omitempty"`

	// Observability carry, invisible on the wire (unexported, never
	// marshaled): pubAt is the document's publish-admission time (zero for
	// replayed deliveries), feeding the channel's publish-to-delivery
	// histogram at wire-write time; tr/ringAt belong to a sampled stage
	// trace — the trace this delivery holds a reference on, and the
	// trace-relative nanosecond at which the delivery entered the ring.
	pubAt  time.Time
	tr     *obs.Trace
	ringAt int64
}

// retireTrace releases d's stage-trace reference without a wire write — the
// delivery was dropped, skipped as replay-superseded, or discarded by the
// replay ring bleed. Safe on untraced deliveries.
func (d *Delivery) retireTrace() {
	if d.tr != nil {
		d.tr.Unref()
		d.tr = nil
	}
}

// SeenAll is the Position.Seen sentinel meaning "every delivery of document
// Cursor". A gap marker sets it: the dropped results are acknowledged lost,
// so a resume must not replay the document they belonged to (that would
// duplicate the results received before the gap).
const SeenAll = int64(1) << 62

// Position is a place in a subscription's delivery stream: every document
// before Cursor was fully received, plus the first Seen result deliveries of
// document Cursor. It is what a resume token carries. The client advances it
// over what it reads and a subscription's ring over what it hands out, with
// the same rule, so the two are equal exactly when the consumer holds
// everything the ring has let go of.
type Position struct {
	Cursor int64
	Seen   int64
}

// Advance moves p past d and reports whether p changed. A result counts
// toward its document. A gap moves past the last document of its span and
// poisons that document's remainder (SeenAll), so a resume neither replays
// what arrived before the gap nor re-loses the same span; a gap that does
// not reach past p leaves it where it is. Over a stream in delivery order p
// never moves back, so a position names the one point of the stream where
// it was first reached.
func (p *Position) Advance(d *Delivery) bool {
	was := *p
	switch d.Type {
	case DeliveryResult:
		if d.DocSeq != p.Cursor {
			p.Cursor, p.Seen = d.DocSeq, 0
		}
		p.Seen++
	case DeliveryGap:
		if end := deliveryEnd(*d); end > p.Cursor || end == p.Cursor && p.Seen < SeenAll {
			p.Cursor, p.Seen = end, SeenAll
		}
	}
	return *p != was
}

// deliveryEnd is the last cursor a delivery speaks for: its DocSeq, or the
// end of a gap marker's skipped range.
func deliveryEnd(d Delivery) int64 {
	if d.ToCursor > d.DocSeq {
		return d.ToCursor
	}
	return d.DocSeq
}

// SubscribeResponse answers subscription creation and replacement.
type SubscribeResponse struct {
	Channel string `json:"channel"`
	ID      string `json:"id"`
	Query   string `json:"query"`
}

// PublishResponse answers document ingestion.
type PublishResponse struct {
	Channel string `json:"channel"`
	DocSeq  int64  `json:"doc_seq"`
	// Queued is true for async publishes: the document was accepted but not
	// yet evaluated, so Results and Events are absent.
	Queued bool `json:"queued,omitempty"`
	// Results counts deliveries actually placed into subscriber rings;
	// Events is the shared scan's event count.
	Results int64 `json:"results"`
	Events  int64 `json:"events"`
}

// ErrorResponse is the body of every non-2xx API answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// Offset is the byte offset of a malformed-XML failure in the published
	// document, when known.
	Offset int64 `json:"offset,omitempty"`
	// Position is the byte position of an XPath compile failure in the
	// subscription query, when known.
	Position int `json:"position,omitempty"`
	// DocSeq identifies the document of a failed publish (it consumed an
	// arrival number even though it aborted; subscribers see a gap marker
	// carrying the same number).
	DocSeq int64 `json:"doc_seq,omitempty"`
}

// ChannelMetrics is one channel's slice of the /metrics answer.
type ChannelMetrics struct {
	Subscriptions int   `json:"subscriptions"`
	DocsIn        int64 `json:"docs_in"`
	DocsFailed    int64 `json:"docs_failed"`
	BytesIn       int64 `json:"bytes_in"`
	// Results counts deliveries placed into subscriber rings; Gaps counts
	// gap markers delivered.
	Results int64 `json:"results"`
	Gaps    int64 `json:"gaps"`
	// Queued is the current depth of the channel's ingest queue.
	Queued int `json:"queued"`
	// WAL is the channel's durability accounting (nil on a memory-only
	// broker).
	WAL *WALMetrics `json:"wal,omitempty"`
	// Engine is the channel's live-QuerySet churn accounting (compiles,
	// epochs, compactions, slot occupancy).
	Engine engine.Metrics `json:"engine"`
	// Latency summarizes the channel's latency histograms.
	Latency *LatencyMetrics `json:"latency,omitempty"`
}

// LatencyMetrics summarizes a channel's (or the broker's aggregated)
// latency histograms: counts, sums and upper-bound quantile estimates in
// nanoseconds. Full bucket data is exposed in the Prometheus view of
// /metrics (see prom.go for the series names).
type LatencyMetrics struct {
	// PublishToAck: publish admission to acknowledgment (the WAL append
	// included for durable channels; evaluation included for synchronous
	// publishes).
	PublishToAck obs.Stats `json:"publish_to_ack"`
	// PublishToDelivery: publish admission to the delivery's NDJSON
	// encode on a consumer connection. Replayed deliveries are excluded.
	PublishToDelivery obs.Stats `json:"publish_to_delivery"`
	// PublishToFirstDelivery: the same span for the first delivery of each
	// document a consumer connection writes — how long a document's first
	// result takes to reach the wire.
	PublishToFirstDelivery obs.Stats `json:"publish_to_first_delivery"`
	// WALAppend/WALFsync: the write (rotation included, fsync excluded)
	// and fsync portions of WAL appends; nil on memory-only channels, and
	// WALFsync stays zero-count unless Config.WALSync is on.
	WALAppend *obs.Stats `json:"wal_append,omitempty"`
	WALFsync  *obs.Stats `json:"wal_fsync,omitempty"`
}

// WALMetrics is one channel's write-ahead-log slice of the /metrics answer.
type WALMetrics struct {
	// Bytes and Segments size the retained log on disk.
	Bytes    int64 `json:"bytes"`
	Segments int   `json:"segments"`
	// FirstCursor/LastCursor bound the replayable cursor range (0/0 for an
	// empty log).
	FirstCursor int64 `json:"first_cursor"`
	LastCursor  int64 `json:"last_cursor"`
	// RecoveredCursor is the cursor the channel resumed from at boot (0
	// for a channel created by this process).
	RecoveredCursor int64 `json:"recovered_cursor,omitempty"`
	// ReplayDocs/ReplayResults count documents re-evaluated and result
	// deliveries re-sent for resuming or late-joining subscribers.
	ReplayDocs    int64 `json:"replay_docs"`
	ReplayResults int64 `json:"replay_results"`
}

// MetricsResponse is the /metrics answer: per-channel counters plus broker
// totals and configuration.
type MetricsResponse struct {
	Channels map[string]ChannelMetrics `json:"channels"`
	Totals   struct {
		Channels      int   `json:"channels"`
		DocsIn        int64 `json:"docs_in"`
		Results       int64 `json:"results"`
		Gaps          int64 `json:"gaps"`
		WALBytes      int64 `json:"wal_bytes"`
		WALSegments   int   `json:"wal_segments"`
		ReplayDocs    int64 `json:"replay_docs"`
		ReplayResults int64 `json:"replay_results"`
		// Latency aggregates every channel's publish-to-ack and
		// publish-to-delivery histograms (nil when no channel exists).
		Latency *LatencyMetrics `json:"latency,omitempty"`
	} `json:"totals"`
	Config struct {
		Workers    int    `json:"workers"`
		QueueDepth int    `json:"queue_depth"`
		RingSize   int    `json:"ring_size"`
		Policy     string `json:"policy"`
		Durable    bool   `json:"durable"`
	} `json:"config"`
}
