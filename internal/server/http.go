package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// maxBodyBytes bounds published documents; a streaming system ingests many
// documents, not one enormous one.
const maxBodyBytes = 64 << 20

// maxQueryBytes bounds subscription queries, so a query nested deep enough
// to exhaust the XPath parser's stack is refused before it is parsed.
const maxQueryBytes = 64 << 10

// maxKeptLine is the largest encode buffer a result stream keeps between
// lines.
const maxKeptLine = 64 << 10

// Handler wires the broker's HTTP API (see wire.go for the route table and
// body types).
func Handler(b *Broker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /channels/{ch}/subscriptions", b.handleSubscribe)
	mux.HandleFunc("PUT /channels/{ch}/subscriptions/{id}", b.handleReplace)
	mux.HandleFunc("DELETE /channels/{ch}/subscriptions/{id}", b.handleUnsubscribe)
	mux.HandleFunc("GET /channels/{ch}/subscriptions/{id}/results", b.handleResults)
	mux.HandleFunc("POST /channels/{ch}/documents", b.handlePublish)
	mux.HandleFunc("DELETE /channels/{ch}", b.handleDeleteChannel)
	mux.HandleFunc("GET /metrics", b.handleMetrics)
	mux.HandleFunc("GET /debug/traces", b.handleTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return mux
}

// writeJSON emits one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError maps broker and compile errors to HTTP statuses and a
// structured ErrorResponse: byte positions for bad XPath, byte offsets for
// malformed XML, the consumed document number for failed publishes.
func writeError(w http.ResponseWriter, err error) {
	resp := ErrorResponse{Error: err.Error()}
	status := http.StatusInternalServerError
	var pe *publishError
	if errors.As(err, &pe) {
		resp.DocSeq = pe.seq
	}
	var parseErr *xpath.ParseError
	var synErr *xmlscan.SyntaxError
	switch {
	case errors.As(err, &parseErr):
		status = http.StatusBadRequest
		resp.Position = parseErr.Pos
	case errors.As(err, &synErr):
		status = http.StatusBadRequest
		resp.Offset = synErr.Offset
	case errors.Is(err, ErrNoSubscription), errors.Is(err, ErrNoChannel):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrNotDurable):
		status = http.StatusBadRequest
	case errors.Is(err, ErrShutdown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		status = http.StatusServiceUnavailable
	case pe != nil:
		// An aborted evaluation with an unrecognized cause (an emit-path
		// failure): the document was still rejected.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

// readBody reads a request body of at most limit bytes. A body that
// declares its length within the limit is read into one slice of exactly
// that size; a chunked body grows as it arrives.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	var data []byte
	var err error
	if n := r.ContentLength; n >= 0 && n <= limit {
		data = make([]byte, n)
		if _, err = io.ReadFull(body, data); err == nil {
			var extra [1]byte
			if m, _ := body.Read(extra[:]); m > 0 {
				err = errors.New("body longer than its Content-Length")
			}
		}
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "reading request body: " + err.Error()})
		return nil, false
	}
	return data, true
}

func (b *Broker) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxQueryBytes)
	if !ok {
		return
	}
	query := strings.TrimSpace(string(body))
	if query == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty subscription query"})
		return
	}
	resp, err := b.Subscribe(r.PathValue("ch"), query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, resp)
}

func (b *Broker) handleReplace(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxQueryBytes)
	if !ok {
		return
	}
	query := strings.TrimSpace(string(body))
	if query == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty subscription query"})
		return
	}
	resp, err := b.Replace(r.PathValue("ch"), r.PathValue("id"), query)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (b *Broker) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	if err := b.Unsubscribe(r.PathValue("ch"), r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (b *Broker) handlePublish(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r, maxBodyBytes)
	if !ok {
		return
	}
	wait := !boolParam(r.URL.Query().Get("async"), r.URL.Query().Has("async"))
	resp, err := b.Publish(r.Context(), r.PathValue("ch"), data, wait)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if resp.Queued {
		status = http.StatusAccepted
	}
	writeJSON(w, status, resp)
}

// handleResults streams the subscription's deliveries as NDJSON until the
// subscription ends (unsubscribe or shutdown — the stream finishes with an
// "end" line) or the client disconnects. Deliveries that are ready together
// are flushed together.
//
// With `?from=C&seen=K` (durable brokers) the stream resumes at that
// token. When the subscription's ring still holds everything after it (the
// token is the ring's handed position and nothing was dropped since), the
// stream simply reads on from the ring. Otherwise it opens with a WAL
// replay: documents C..tip re-evaluated through the live QuerySet, the
// first K results of document C skipped, then a seamless handoff to live
// deliveries — everything the replay covered is filtered out of the ring,
// so the resumed stream carries no duplicate and misses nothing.
func (b *Broker) handleResults(w http.ResponseWriter, r *http.Request) {
	sub, err := b.subscription(r.PathValue("ch"), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	resume := q.Has("from")
	var from, seen int64
	var plan replayPlan
	if resume {
		if from, err = cursorParam(q.Get("from")); err == nil && q.Has("seen") {
			seen, err = cursorParam(q.Get("seen"))
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad resume token: " + err.Error()})
			return
		}
	}
	if !sub.ring.attach() {
		writeJSON(w, http.StatusConflict, ErrorResponse{Error: "subscription already has an attached consumer"})
		return
	}
	defer sub.ring.detach()
	if resume && sub.ch.wal == nil {
		writeError(w, ErrNotDurable)
		return
	}
	// Decide and plan after winning the attach slot, so no concurrent
	// consumer can move the handed position or drain ring entries out from
	// under the replay boundary.
	replay := resume && !sub.ring.covers(Position{Cursor: from, Seen: seen})
	if replay {
		if plan, err = sub.ch.replayPlan(sub); err != nil {
			writeError(w, err)
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush() // commit headers so clients see the stream open

	// line is the connection's encode buffer, reused from line to line; one
	// that a huge value grew is let go rather than kept for the stream's
	// lifetime.
	var line []byte
	write := func(d *Delivery) error {
		line = AppendDelivery(line[:0], d)
		_, err := w.Write(line)
		if cap(line) > maxKeptLine {
			line = nil
		}
		return err
	}

	// observe records a written live delivery's publish-to-wire latency, and
	// the first of each document's once more as its first delivery.
	var firstDoc int64
	observe := func(d *Delivery) {
		if d.pubAt.IsZero() {
			return
		}
		since := time.Since(d.pubAt)
		sub.ch.pubDeliver.Observe(since)
		if d.DocSeq != firstDoc {
			firstDoc = d.DocSeq
			sub.ch.pubFirst.Observe(since)
		}
	}

	ctx := r.Context()
	var skipTo int64 // ring deliveries wholly at or below this cursor were replayed
	var held *Delivery
	if replay {
		// One flush per replayed document (the replay's hook) and one at
		// the hand-off below.
		held, err = sub.ch.replay(ctx, sub, plan, from, seen, func(d Delivery) error { return write(&d) }, rc.Flush)
		if err != nil {
			return // consumer gone mid-replay; ring stays live for another try
		}
		skipTo = plan.tip
	}
	deliver := func(d Delivery) (ok bool) {
		if d.DocSeq != 0 && deliveryEnd(d) <= skipTo {
			d.retireTrace()
			return true // superseded by the replay
		}
		if d.tr == nil {
			if ok = write(&d) == nil; ok {
				observe(&d)
			}
			return ok
		}
		// Traced delivery: deliver_wait ran from its ring entry to this
		// dequeue; wire_write covers encode plus an immediate flush (batching
		// it with neighbors would hide the flush cost from the trace).
		d.tr.AddStage(obs.StageDeliverWait, time.Duration(d.tr.SinceStartNs()-d.ringAt))
		wireStart := time.Now()
		ok = write(&d) == nil
		if ok {
			ok = rc.Flush() == nil
		}
		d.tr.AddStage(obs.StageWireWrite, time.Since(wireStart))
		d.tr.MarkEnd()
		if ok {
			observe(&d)
		}
		d.retireTrace()
		return ok
	}
	if replay {
		if held != nil && !deliver(*held) {
			return
		}
		if flushErr := rc.Flush(); flushErr != nil {
			return
		}
	}
	for {
		d, ok, err := sub.ring.next(ctx)
		if err != nil {
			return // client gone; the ring stays live for a reconnect
		}
		if !ok {
			_ = write(&Delivery{Type: DeliveryEnd})
			_ = rc.Flush()
			return
		}
		if !deliver(d) {
			return
		}
		for {
			more, okMore := sub.ring.tryNext()
			if !okMore {
				break
			}
			if !deliver(more) {
				return
			}
		}
		if flushErr := rc.Flush(); flushErr != nil {
			return
		}
	}
}

// cursorParam parses a non-negative cursor-valued query parameter.
func cursorParam(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 {
		return 0, fmt.Errorf("negative cursor %d", v)
	}
	return v, nil
}

func (b *Broker) handleDeleteChannel(w http.ResponseWriter, r *http.Request) {
	if err := b.DeleteChannel(r.PathValue("ch")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleMetrics answers in JSON by default (MetricsResponse; map keys are
// emitted sorted, so the body is deterministic for a given state) and in
// Prometheus text exposition format when asked — either explicitly with
// ?format=prometheus|json, or by Accept negotiation (text/plain or
// application/openmetrics-text ahead of application/json).
func (b *Broker) handleMetrics(w http.ResponseWriter, r *http.Request) {
	prom := false
	switch r.URL.Query().Get("format") {
	case "prometheus":
		prom = true
	case "json", "":
		prom = r.URL.Query().Get("format") == "" && acceptsPrometheus(r.Header.Get("Accept"))
	default:
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "unknown format (want json or prometheus)"})
		return
	}
	if prom {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, b)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(b.Metrics())
}

// acceptsPrometheus reports whether the Accept header asks for the text
// exposition format ahead of JSON. First listed wins — enough fidelity for
// scrapers (which send text/plain or openmetrics first) without a full
// q-value parser; bare curl (*/*) and absent headers stay on JSON.
func acceptsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		switch strings.TrimSpace(strings.SplitN(part, ";", 2)[0]) {
		case "text/plain", "application/openmetrics-text":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

// handleTraces serves the tracer's in-memory ring of finished stage traces,
// newest first. With sampling off it answers enabled=false and an empty
// list rather than 404, so probers need no config knowledge.
func (b *Broker) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := b.Tracer()
	recs := tr.Recent()
	if recs == nil {
		recs = []obs.Record{}
	}
	writeJSON(w, http.StatusOK, struct {
		Enabled bool         `json:"enabled"`
		Emitted int64        `json:"emitted"`
		Traces  []obs.Record `json:"traces"`
	}{tr != nil, tr.Emitted(), recs})
}

// boolParam interprets a query-string flag: absent -> false, bare or
// unparsable -> true (presence is the signal), otherwise its boolean value
// — so ?async=0 and ?async=false select the synchronous path.
func boolParam(value string, present bool) bool {
	if !present {
		return false
	}
	if value == "" {
		return true
	}
	v, err := strconv.ParseBool(value)
	if err != nil {
		return true
	}
	return v
}
