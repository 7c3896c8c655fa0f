// Package client is the Go client for vitexd, the streaming XPath
// subscription server (see internal/server for the broker and wire
// protocol). It covers the whole lifecycle: register and replace standing
// subscriptions on named channels, publish documents, and consume the
// NDJSON result stream incrementally.
//
// Quick start:
//
//	cl := client.New("http://localhost:8344")
//	sub, _ := cl.Subscribe(ctx, "news", "//story[@section='tech']/headline/text()")
//	stream, _ := cl.Results(ctx, "news", sub.ID)
//	go func() {
//		for {
//			d, err := stream.Next()
//			if err != nil { return }
//			if d.Type == server.DeliveryResult { fmt.Println(d.Value) }
//		}
//	}()
//	cl.Publish(ctx, "news", strings.NewReader(feedXML))
package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/server"
)

// Client talks to one vitexd instance. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the server at base (e.g. "http://127.0.0.1:8344").
// The underlying http.Client has no timeout: result streams are long-lived.
// Use NewWithHTTPClient to customize transport behavior.
func New(base string) *Client {
	return NewWithHTTPClient(base, &http.Client{})
}

// NewWithHTTPClient builds a client using the given http.Client. Do not set
// hc.Timeout if you consume result streams — it would sever them.
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// APIError is a non-2xx answer decoded from the server's structured error
// body.
type APIError struct {
	Status int
	server.ErrorResponse
}

func (e *APIError) Error() string {
	return fmt.Sprintf("vitexd: HTTP %d: %s", e.Status, e.ErrorResponse.Error)
}

// decodeError consumes a non-2xx response body.
func decodeError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(body, &apiErr.ErrorResponse); err != nil || apiErr.ErrorResponse.Error == "" {
		apiErr.ErrorResponse.Error = strings.TrimSpace(string(body))
		if apiErr.ErrorResponse.Error == "" {
			apiErr.ErrorResponse.Error = resp.Status
		}
	}
	return apiErr
}

// subsPath builds the escaped subscription-collection path for a channel;
// names with path metacharacters round-trip safely.
func subsPath(channel string) string {
	return "/channels/" + url.PathEscape(channel) + "/subscriptions"
}

// do runs one request and decodes a JSON answer into out (unless nil).
func (c *Client) do(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Subscribe registers an XPath query on the channel (created on first use)
// and returns its subscription id.
func (c *Client) Subscribe(ctx context.Context, channel, query string) (*server.SubscribeResponse, error) {
	var out server.SubscribeResponse
	err := c.do(ctx, http.MethodPost, subsPath(channel), strings.NewReader(query), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Replace swaps the subscription's query in place; the id and any attached
// result stream survive.
func (c *Client) Replace(ctx context.Context, channel, id, query string) (*server.SubscribeResponse, error) {
	var out server.SubscribeResponse
	err := c.do(ctx, http.MethodPut, subsPath(channel)+"/"+url.PathEscape(id), strings.NewReader(query), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Unsubscribe removes the subscription; its result stream ends with an
// "end" delivery.
func (c *Client) Unsubscribe(ctx context.Context, channel, id string) error {
	return c.do(ctx, http.MethodDelete, subsPath(channel)+"/"+url.PathEscape(id), nil, nil)
}

// Publish ingests one XML document synchronously: it returns after the
// document was evaluated against every standing subscription (Results and
// Events report the outcome). Malformed documents return an *APIError whose
// Offset locates the syntax error; subscribers receive a gap marker for the
// same DocSeq.
func (c *Client) Publish(ctx context.Context, channel string, doc io.Reader) (*server.PublishResponse, error) {
	var out server.PublishResponse
	err := c.do(ctx, http.MethodPost, "/channels/"+url.PathEscape(channel)+"/documents", doc, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// PublishAsync enqueues one XML document and returns as soon as it is
// accepted into the channel's ingest queue.
func (c *Client) PublishAsync(ctx context.Context, channel string, doc io.Reader) (*server.PublishResponse, error) {
	var out server.PublishResponse
	err := c.do(ctx, http.MethodPost, "/channels/"+url.PathEscape(channel)+"/documents?async=1", doc, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteChannel removes a channel: queued documents drain, every
// subscription stream ends, and the name becomes available again.
func (c *Client) DeleteChannel(ctx context.Context, channel string) error {
	return c.do(ctx, http.MethodDelete, "/channels/"+url.PathEscape(channel), nil, nil)
}

// Metrics fetches the broker's counters.
func (c *Client) Metrics(ctx context.Context) (*server.MetricsResponse, error) {
	var out server.MetricsResponse
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the broker's counters in Prometheus text exposition
// format (the same data as Metrics, plus full histogram buckets).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics?format=prometheus", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// TracesResponse is the GET /debug/traces answer: the most recent finished
// stage traces, newest first. Enabled is false when the server runs without
// -trace-sample.
type TracesResponse struct {
	Enabled bool         `json:"enabled"`
	Emitted int64        `json:"emitted"`
	Traces  []obs.Record `json:"traces"`
}

// Traces fetches the server's buffered stage-trace records.
func (c *Client) Traces(ctx context.Context) (*TracesResponse, error) {
	var out TracesResponse
	if err := c.do(ctx, http.MethodGet, "/debug/traces", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ResumeToken is a durable stream position: every document before Cursor
// was fully received, plus the first Seen result deliveries of document
// Cursor. A token taken from a severed stream (see ErrStreamInterrupted)
// hands Resume everything it needs to continue without duplicates or loss —
// provided the server is durable and the cursor is still within WAL
// retention.
type ResumeToken struct {
	Channel string
	SubID   string
	Cursor  int64
	Seen    int64
}

// ErrStreamInterrupted reports a result stream severed before its "end"
// delivery — a crashed or restarted server, a dropped connection. Token
// carries the exact position reached, so the consumer can reconnect with
// Resume and continue where the break happened.
type ErrStreamInterrupted struct {
	Token ResumeToken
	Err   error
}

func (e *ErrStreamInterrupted) Error() string {
	return fmt.Sprintf("vitexd: result stream interrupted at cursor %d (+%d seen): %v",
		e.Token.Cursor, e.Token.Seen, e.Err)
}

func (e *ErrStreamInterrupted) Unwrap() error { return e.Err }

// Results attaches to the subscription's live result stream. At most one
// consumer may be attached at a time (a second attach gets HTTP 409).
// Cancel ctx to detach; the subscription and its buffer survive for a
// reconnect.
func (c *Client) Results(ctx context.Context, channel, id string) (*ResultStream, error) {
	return c.attach(ctx, channel, id, "", 0, 0)
}

// ResultsFrom attaches with a replay: the server re-evaluates retained
// documents from cursor onward (skipping the first seen results of document
// cursor) before handing off to the live stream. cursor 0 replays
// everything the channel's log retains — a late joiner's full catch-up.
// Requires a durable server (HTTP 400 otherwise).
func (c *Client) ResultsFrom(ctx context.Context, channel, id string, cursor, seen int64) (*ResultStream, error) {
	return c.attach(ctx, channel, id,
		"?from="+strconv.FormatInt(cursor, 10)+"&seen="+strconv.FormatInt(seen, 10),
		cursor, seen)
}

// Resume reattaches a severed stream at the position an ErrStreamInterrupted
// token captured.
func (c *Client) Resume(ctx context.Context, t ResumeToken) (*ResultStream, error) {
	return c.ResultsFrom(ctx, t.Channel, t.SubID, t.Cursor, t.Seen)
}

// attach opens the NDJSON stream. cursor/seen seed the position tracker: a
// resumed stream that severs again before any delivery must report the
// position it resumed FROM, not zero — otherwise the second resume would
// replay (and duplicate) what arrived before the first sever.
func (c *Client) attach(ctx context.Context, channel, id, query string, cursor, seen int64) (*ResultStream, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+subsPath(channel)+"/"+url.PathEscape(id)+"/results"+query, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return &ResultStream{
		body:    resp.Body,
		rd:      bufio.NewReaderSize(resp.Body, 64<<10),
		channel: channel,
		id:      id,
		pos:     server.Position{Cursor: cursor, Seen: seen},
	}, nil
}

// ResultStream iterates a subscription's NDJSON deliveries and tracks the
// stream position, so an interruption at any point yields a resume token.
type ResultStream struct {
	body io.ReadCloser
	rd   *bufio.Reader
	// long assembles a line longer than rd's buffer. Lines have no length
	// ceiling: a result value is a serialized XML fragment, as large as a
	// published document.
	long    []byte
	channel string
	id      string
	pos     server.Position
	ended   bool
}

// Token snapshots the current stream position as a resume token.
func (s *ResultStream) Token() ResumeToken {
	return ResumeToken{Channel: s.channel, SubID: s.id, Cursor: s.pos.Cursor, Seen: s.pos.Seen}
}

// Next returns the next delivery. After an "end" delivery (which is
// returned to the caller), Next returns io.EOF. A stream severed before its
// end delivery returns *ErrStreamInterrupted carrying the resume token for
// the exact position reached.
func (s *ResultStream) Next() (*server.Delivery, error) {
	if s.ended {
		return nil, io.EOF
	}
	line, err := s.readLine()
	var d server.Delivery
	switch {
	case err == nil:
		err = server.ParseDelivery(line, &d)
	case err == io.EOF && len(line) > 0:
		err = io.ErrUnexpectedEOF // the stream ended inside a line
	}
	if err != nil {
		s.ended = true
		return nil, &ErrStreamInterrupted{Token: s.Token(), Err: err}
	}
	if d.Type == server.DeliveryEnd {
		s.ended = true
	}
	// The server's ring advances its handed position by the same rule, so a
	// token that holds everything handed resumes from the ring.
	s.pos.Advance(&d)
	return &d, nil
}

// readLine returns the next line, newline included, valid until the next
// call; err is non-nil only when the line does not end in a newline.
func (s *ResultStream) readLine() ([]byte, error) {
	line, err := s.rd.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	s.long = append(s.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = s.rd.ReadSlice('\n')
		s.long = append(s.long, line...)
	}
	return s.long, err
}

// Close severs the stream (the server keeps the subscription).
func (s *ResultStream) Close() error { return s.body.Close() }
