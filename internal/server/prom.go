// Prometheus text exposition of the broker's metrics: the same counters as
// the JSON MetricsResponse, flattened into labeled series, plus the full
// bucket data of every latency histogram (the JSON view carries only
// quantile summaries). Served by GET /metrics under content negotiation —
// see handleMetrics.
//
// Series naming: vitex_channel_* (per-channel broker counters),
// vitex_engine_* (the channel's live-QuerySet accounting), vitex_wal_*
// (durability, durable brokers only), and the *_seconds histograms
// vitex_publish_to_ack_seconds{channel}, vitex_publish_to_delivery_seconds
// {channel,policy}, vitex_publish_to_first_delivery_seconds{channel,policy},
// vitex_engine_eval_event_seconds{channel},
// vitex_wal_append_seconds{channel}, vitex_wal_fsync_seconds{channel}.
// Histogram buckets are the obs package's power-of-two nanosecond lattice
// converted to seconds; every bucket is emitted every scrape, so the le
// label set is stable.
package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// promChannel is one channel's scrape snapshot: the JSON counters plus the
// full histogram data the summary stats elide.
type promChannel struct {
	name string
	cm   ChannelMetrics

	ack, deliver, first, eval obs.Snapshot
	walAppend, walFsync       *obs.Snapshot
}

// writePrometheus renders the exposition. Channels are emitted in sorted
// name order, so the body is deterministic for a given broker state.
func writePrometheus(w io.Writer, b *Broker) {
	b.mu.Lock()
	chans := make([]*channel, 0, len(b.channels))
	for _, c := range b.channels {
		chans = append(chans, c)
	}
	b.mu.Unlock()
	sort.Slice(chans, func(i, j int) bool { return chans[i].name < chans[j].name })

	rows := make([]promChannel, 0, len(chans))
	for _, c := range chans {
		pc := promChannel{
			name:    c.name,
			cm:      c.metrics(),
			ack:     c.pubAck.Snapshot(),
			deliver: c.pubDeliver.Snapshot(),
			first:   c.pubFirst.Snapshot(),
			eval:    c.qs.EvalHistogram(),
		}
		if c.wal != nil {
			app, fs := c.wal.latency()
			pc.walAppend, pc.walFsync = &app, &fs
		}
		rows = append(rows, pc)
	}

	gauge := func(name, help string, value func(promChannel) (int64, bool)) {
		promFamily(w, name, "gauge", help, rows, value)
	}
	counter := func(name, help string, value func(promChannel) (int64, bool)) {
		promFamily(w, name, "counter", help, rows, value)
	}

	fmt.Fprintf(w, "# HELP vitex_broker_channels Number of live channels.\n# TYPE vitex_broker_channels gauge\nvitex_broker_channels %d\n", len(rows))
	fmt.Fprintf(w, "# HELP vitex_traces_emitted_total Finished stage-trace records.\n# TYPE vitex_traces_emitted_total counter\nvitex_traces_emitted_total %d\n", b.tracer.Emitted())

	gauge("vitex_channel_subscriptions", "Standing subscriptions on the channel.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Subscriptions), true })
	counter("vitex_channel_docs_in_total", "Documents accepted for publication.",
		func(p promChannel) (int64, bool) { return p.cm.DocsIn, true })
	counter("vitex_channel_docs_failed_total", "Accepted documents whose evaluation aborted.",
		func(p promChannel) (int64, bool) { return p.cm.DocsFailed, true })
	counter("vitex_channel_bytes_in_total", "Bytes of accepted documents.",
		func(p promChannel) (int64, bool) { return p.cm.BytesIn, true })
	counter("vitex_channel_results_total", "Result deliveries placed into subscriber rings.",
		func(p promChannel) (int64, bool) { return p.cm.Results, true })
	counter("vitex_channel_gaps_total", "Gap markers delivered to subscribers.",
		func(p promChannel) (int64, bool) { return p.cm.Gaps, true })
	gauge("vitex_channel_queue_depth", "Current ingest-queue depth.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Queued), true })

	gauge("vitex_engine_epoch", "Live QuerySet epoch (membership version).",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.Epoch), true })
	counter("vitex_engine_compiles_total", "Queries compiled into the live set.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.Compiles, true })
	counter("vitex_engine_compactions_total", "Slot-table compactions.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.Compactions, true })
	gauge("vitex_engine_slots", "Machine slots allocated (live + garbage).",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.Slots), true })
	gauge("vitex_engine_live_queries", "Live queries in the set.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.Live), true })
	gauge("vitex_engine_garbage_slots", "Removed slots awaiting compaction.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.Garbage), true })
	gauge("vitex_engine_trie_nodes", "Live shared-prefix-trie nodes.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.TrieNodes), true })
	gauge("vitex_engine_trie_garbage", "Pruned trie node ids awaiting compaction.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.TrieGarbage), true })
	gauge("vitex_engine_anchored_machines", "Machines evaluating as residuals behind the trie.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.AnchoredMachines), true })
	gauge("vitex_engine_value_groups", "Value groups: equality subscriptions routed by their literal.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.ValueGroups), true })
	gauge("vitex_engine_value_keyed_machines", "Machines evaluated by a value group.",
		func(p promChannel) (int64, bool) { return int64(p.cm.Engine.ValueKeyedMachines), true })
	counter("vitex_engine_trie_grafts_total", "Trie graft operations.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.TrieGrafts, true })
	counter("vitex_engine_trie_prunes_total", "Trie prune operations.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.TriePrunes, true })
	counter("vitex_engine_trie_compactions_total", "Trie compactions.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.TrieCompactions, true })
	counter("vitex_engine_events_total", "Scan events read, including those the scanner projected out before dispatch.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.Events, true })
	counter("vitex_engine_deliveries_total", "Machine and value-group deliveries (engine wake-ups).",
		func(p promChannel) (int64, bool) { return p.cm.Engine.Deliveries, true })
	counter("vitex_engine_trie_pushes_total", "Trie entries pushed by the shared prefix layer.",
		func(p promChannel) (int64, bool) { return p.cm.Engine.TriePushes, true })

	wal := func(name, typ, help string, value func(*WALMetrics) int64) {
		promFamily(w, name, typ, help, rows, func(p promChannel) (int64, bool) {
			if p.cm.WAL == nil {
				return 0, false
			}
			return value(p.cm.WAL), true
		})
	}
	wal("vitex_wal_bytes", "gauge", "Retained write-ahead-log bytes on disk.",
		func(wm *WALMetrics) int64 { return wm.Bytes })
	wal("vitex_wal_segments", "gauge", "Retained write-ahead-log segments.",
		func(wm *WALMetrics) int64 { return int64(wm.Segments) })
	wal("vitex_wal_first_cursor", "gauge", "Oldest replayable document cursor.",
		func(wm *WALMetrics) int64 { return wm.FirstCursor })
	wal("vitex_wal_last_cursor", "gauge", "Newest durable document cursor.",
		func(wm *WALMetrics) int64 { return wm.LastCursor })
	wal("vitex_wal_recovered_cursor", "gauge", "Cursor the channel resumed from at boot.",
		func(wm *WALMetrics) int64 { return wm.RecoveredCursor })
	wal("vitex_wal_replay_docs_total", "counter", "Documents re-evaluated for resuming subscribers.",
		func(wm *WALMetrics) int64 { return wm.ReplayDocs })
	wal("vitex_wal_replay_results_total", "counter", "Result deliveries re-sent for resuming subscribers.",
		func(wm *WALMetrics) int64 { return wm.ReplayResults })

	policy := b.cfg.Policy.String()
	promHistogram(w, "vitex_publish_to_ack_seconds",
		"Publish admission to acknowledgment.", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			return promLabel("channel", p.name), p.ack, true
		})
	promHistogram(w, "vitex_publish_to_delivery_seconds",
		"Publish admission to the delivery's wire encode (replays excluded).", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			return promLabel("channel", p.name) + "," + promLabel("policy", policy), p.deliver, true
		})
	promHistogram(w, "vitex_publish_to_first_delivery_seconds",
		"Publish admission to the wire encode of a document's first delivery on a connection (replays excluded).", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			return promLabel("channel", p.name) + "," + promLabel("policy", policy), p.first, true
		})
	promHistogram(w, "vitex_engine_eval_event_seconds",
		"Engine evaluation cost per scan event (serial streams).", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			return promLabel("channel", p.name), p.eval, true
		})
	promHistogram(w, "vitex_wal_append_seconds",
		"WAL append write time, fsync excluded.", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			if p.walAppend == nil {
				return "", obs.Snapshot{}, false
			}
			return promLabel("channel", p.name), *p.walAppend, true
		})
	promHistogram(w, "vitex_wal_fsync_seconds",
		"WAL fsync time (zero-count unless WALSync is on).", rows,
		func(p promChannel) (string, obs.Snapshot, bool) {
			if p.walFsync == nil {
				return "", obs.Snapshot{}, false
			}
			return promLabel("channel", p.name), *p.walFsync, true
		})
}

// promFamily writes one HELP/TYPE header and a channel-labeled series per
// row; value's second return skips rows the family does not apply to
// (memory-only channels for vitex_wal_*). A family with no applicable rows
// is omitted entirely.
func promFamily(w io.Writer, name, typ, help string, rows []promChannel, value func(promChannel) (int64, bool)) {
	wrote := false
	for _, p := range rows {
		v, ok := value(p)
		if !ok {
			continue
		}
		if !wrote {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			wrote = true
		}
		fmt.Fprintf(w, "%s{%s} %d\n", name, promLabel("channel", p.name), v)
	}
}

// promHistogram writes one histogram family: per row, the full cumulative
// bucket lattice (le in seconds, +Inf last), the sum in seconds, and the
// count.
func promHistogram(w io.Writer, name, help string, rows []promChannel, snap func(promChannel) (string, obs.Snapshot, bool)) {
	wrote := false
	for _, p := range rows {
		labels, s, ok := snap(p)
		if !ok {
			continue
		}
		if !wrote {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
			wrote = true
		}
		var cum int64
		for i := 0; i < obs.NumBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if i < obs.NumBuckets-1 {
				le = promSeconds(obs.BucketUpperNs(i))
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		}
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, promSeconds(s.SumNs))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, s.Count)
	}
}

// promLabel renders one escaped label pair.
func promLabel(key, value string) string {
	return key + "=" + strconv.Quote(value)
}

// promSeconds renders a nanosecond quantity as seconds with no precision
// loss beyond float64.
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}
