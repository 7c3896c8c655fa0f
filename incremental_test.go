package vitex

import (
	"io"
	"testing"
	"time"
)

// TestIncrementalDeliveryUnderStalledReader pins the paper's second
// requirement (§1: solutions delivered incrementally) at the API boundary:
// once the bytes written so far prove a result, Emit fires — however long the
// input then stalls, and wherever in the document it stalls. The writer sends
// a prefix, waits for the callback, and only then sends the rest; a pipeline
// that holds completed events back while it blocks reading would deadlock
// here (reported as a timeout).
func TestIncrementalDeliveryUnderStalledReader(t *testing.T) {
	// stream evaluates r and calls emitted once per result of //b.
	configs := []struct {
		name   string
		stream func(r io.Reader, emitted func()) error
	}{
		{"Query.Stream", func(r io.Reader, emitted func()) error {
			_, err := MustCompile("//b").Stream(r, Options{}, func(Result) error { emitted(); return nil })
			return err
		}},
		{"QuerySet.Stream", func(r io.Reader, emitted func()) error {
			return streamSetB(r, Options{}, emitted)
		}},
		// Options.Parallel is deprecated and ignored: it must not hold back
		// a result either.
		{"Parallel2", func(r io.Reader, emitted func()) error {
			return streamSetB(r, Options{Parallel: 2}, emitted)
		}},
	}
	// Each prefix proves <b>1</b>; the stall falls on a token boundary, in
	// the middle of a tag, and in the middle of a text run.
	prefixes := []struct{ name, prefix, rest string }{
		{"tokenBoundary", `<a><b>1</b><c/>`, `</a>`},
		{"midTag", `<a><b>1</b><c k="v`, `"/></a>`},
		{"midText", `<a><b>1</b>some te`, `xt</a>`},
	}
	for _, cfg := range configs {
		for _, p := range prefixes {
			t.Run(cfg.name+"/"+p.name, func(t *testing.T) {
				pr, pw := io.Pipe()
				emitted := make(chan struct{}, 1)
				done := make(chan error, 1)
				go func() {
					done <- cfg.stream(pr, func() { emitted <- struct{}{} })
				}()
				if _, err := io.WriteString(pw, p.prefix); err != nil {
					t.Fatal(err)
				}
				select {
				case <-emitted:
				case err := <-done:
					t.Fatalf("stream ended before the input did: %v", err)
				case <-time.After(5 * time.Second):
					pw.CloseWithError(io.ErrUnexpectedEOF)
					<-done
					t.Fatal("result proven by the bytes written so far was withheld while the reader stalled")
				}
				if _, err := io.WriteString(pw, p.rest); err != nil {
					t.Fatal(err)
				}
				pw.Close()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// streamSetB evaluates a two-query set and reports each result of its first
// query, //b.
func streamSetB(r io.Reader, opts Options, emitted func()) error {
	qs, err := NewQuerySet("//b", "//nosuch")
	if err != nil {
		return err
	}
	_, err = qs.Stream(r, opts, func(sr SetResult) error {
		if sr.QueryIndex == 0 {
			emitted()
		}
		return nil
	})
	return err
}
