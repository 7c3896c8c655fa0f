package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// streamOf serves body as a subscription's result stream and attaches to it
// with a resume position of (cursor, seen).
func streamOf(t *testing.T, body string, cursor, seen int64) *ResultStream {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	s, err := New(ts.URL).ResultsFrom(context.Background(), "ch", "s1", cursor, seen)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// lines renders deliveries as the server writes them.
func lines(ds ...server.Delivery) string {
	var b []byte
	for i := range ds {
		b = server.AppendDelivery(b, &ds[i])
	}
	return string(b)
}

// interrupted asserts that err is an *ErrStreamInterrupted at want.
func interrupted(t *testing.T, err error, want ResumeToken) *ErrStreamInterrupted {
	t.Helper()
	var ie *ErrStreamInterrupted
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *ErrStreamInterrupted", err)
	}
	if ie.Token != want {
		t.Fatalf("token = %+v, want %+v", ie.Token, want)
	}
	return ie
}

// TestStreamDecodesDeliveries: result, gap and end lines come back as the
// server sent them, and Next returns io.EOF after the end line.
func TestStreamDecodesDeliveries(t *testing.T) {
	sent := []server.Delivery{
		{Type: server.DeliveryResult, DocSeq: 1, Seq: 0, NodeOffset: 122, Value: `<price a="1">10 &amp; "x"</price>`, ConfirmedAt: 26, DeliveredAt: 27},
		{Type: server.DeliveryResult, DocSeq: 1, Seq: 2, NodeOffset: 0, Value: "line\nbreak\u2028\ttab"},
		{Type: server.DeliveryGap, DocSeq: 2, Reason: "document aborted: xmlscan: syntax error at byte 41"},
		{Type: server.DeliveryGap, DocSeq: 7, Dropped: 1220, FromCursor: 3, ToCursor: 7, Reason: server.GapSlowConsumer},
		{Type: server.DeliveryEnd},
	}
	s := streamOf(t, lines(sent...), 0, 0)
	for i, want := range sent {
		d, err := s.Next()
		if err != nil {
			t.Fatalf("delivery %d: %v", i, err)
		}
		if *d != want {
			t.Fatalf("delivery %d = %+v, want %+v", i, *d, want)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the end line: err = %v, want io.EOF", err)
	}
}

// TestStreamTracksResumeToken: the token advances per result, a new DocSeq
// resets seen, and a gap moves past its span and poisons the rest of it.
func TestStreamTracksResumeToken(t *testing.T) {
	s := streamOf(t, lines(
		server.Delivery{Type: server.DeliveryResult, DocSeq: 3, Seq: 4},
		server.Delivery{Type: server.DeliveryResult, DocSeq: 3, Seq: 5},
		server.Delivery{Type: server.DeliveryResult, DocSeq: 4, Seq: 0},
		server.Delivery{Type: server.DeliveryGap, DocSeq: 6, Dropped: 9, FromCursor: 4, ToCursor: 6, Reason: server.GapSlowConsumer},
	), 3, 3)
	for _, want := range []ResumeToken{
		{"ch", "s1", 3, 4},
		{"ch", "s1", 3, 5},
		{"ch", "s1", 4, 1},
		{"ch", "s1", 6, server.SeenAll},
	} {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
		if got := s.Token(); got != want {
			t.Fatalf("token = %+v, want %+v", got, want)
		}
	}
	// No end line: the stream was severed where the token says.
	_, err := s.Next()
	if ie := interrupted(t, err, ResumeToken{"ch", "s1", 6, server.SeenAll}); ie.Err != io.EOF {
		t.Fatalf("cause = %v, want io.EOF", ie.Err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after the interruption: err = %v, want io.EOF", err)
	}
}

// TestStreamLongLine: a line longer than any read buffer, a 1 MB value,
// arrives whole, and the line after it too.
func TestStreamLongLine(t *testing.T) {
	big := strings.Repeat("<a>x</a>", 1<<17)
	s := streamOf(t, lines(
		server.Delivery{Type: server.DeliveryResult, DocSeq: 1, Value: big},
		server.Delivery{Type: server.DeliveryResult, DocSeq: 1, Seq: 1, Value: "small"},
	), 0, 0)
	for _, want := range []string{big, "small"} {
		d, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if d.Value != want {
			t.Fatalf("value of %d bytes, want %d", len(d.Value), len(want))
		}
	}
}

// TestStreamBrokenLine: a line cut short by the connection, or one that is
// not a delivery, ends the stream with *ErrStreamInterrupted at the position
// reached before it.
func TestStreamBrokenLine(t *testing.T) {
	good := lines(server.Delivery{Type: server.DeliveryResult, DocSeq: 5, Seq: 0})
	for name, tail := range map[string]string{
		"truncated":        `{"type":"result","doc_seq":5,"seq":1,"val`,
		"truncated string": `{"type":"result","doc_seq":5,"value":"<a>`,
		"malformed":        "{\"type\":\"result\",\"doc_seq\":5,\"seq\":x}\n",
		"not an object":    "[1,2]\n",
		"wrong type":       "{\"type\":\"result\",\"doc_seq\":\"5\"}\n",
		"trailing garbage": "{\"type\":\"result\",\"doc_seq\":5} {}\n",
	} {
		t.Run(name, func(t *testing.T) {
			s := streamOf(t, good+tail, 0, 0)
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			_, err := s.Next()
			ie := interrupted(t, err, ResumeToken{"ch", "s1", 5, 1})
			if strings.HasPrefix(name, "truncated") && ie.Err != io.ErrUnexpectedEOF {
				t.Fatalf("cause = %v, want io.ErrUnexpectedEOF", ie.Err)
			}
		})
	}
}
