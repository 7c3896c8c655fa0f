package integration

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/datagen"
	"repro/internal/server"
)

// resumeRetry attaches with a resume token, retrying while the server has
// not yet noticed the severed predecessor (409 on the attach slot).
func resumeRetry(t *testing.T, ctx context.Context, cl *client.Client, token client.ResumeToken) *client.ResultStream {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		stream, err := cl.Resume(ctx, token)
		if err == nil {
			return stream
		}
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 409 || time.Now().After(deadline) {
			t.Fatalf("resume %+v: %v", token, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplayEquivalence pins the durability contract of resume: a subscriber
// that is repeatedly severed and resumed from its token — including
// mid-document — receives the byte-identical delivery sequence (Value, Seq,
// NodeOffset, DocSeq, in order) of a twin subscription on the same query
// that never disconnected, while the channel churns around them. Both resume
// paths run: a sever mid-document leaves the token behind what the server
// handed out and replays the WAL, and a sever once the consumer holds
// everything resumes from the subscription's ring. The test tells them apart
// by the channel's ReplayDocs: the mid-document severs must move it, and the
// caught-up ones must not. Run under -race in CI.
func TestReplayEquivalence(t *testing.T) {
	b, err := server.Open(server.Config{
		DataDir:  t.TempDir(),
		RingSize: 1 << 15,
		Policy:   server.PolicyBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler(b))
	defer ts.Close()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		b.Shutdown(ctx)
	}
	defer shutdown()
	cl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const channel = "replay"
	const query = "//trade[symbol='ACME']/price"

	// The twin subscriptions under comparison.
	steady, err := cl.Subscribe(ctx, channel, query)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := cl.Subscribe(ctx, channel, query)
	if err != nil {
		t.Fatal(err)
	}

	// The steady consumer never disconnects; it drains concurrently until
	// shutdown ends its stream.
	var mu sync.Mutex
	var steadyGot []wireResult
	var steadyDone sync.WaitGroup
	steadyStream, err := cl.Results(ctx, channel, steady.ID)
	if err != nil {
		t.Fatal(err)
	}
	steadyDone.Add(1)
	go func() {
		defer steadyDone.Done()
		defer steadyStream.Close()
		for {
			d, err := steadyStream.Next()
			if err != nil {
				return
			}
			switch d.Type {
			case server.DeliveryResult:
				mu.Lock()
				steadyGot = append(steadyGot, wireResult{doc: d.DocSeq, seq: d.Seq, nodeOffset: d.NodeOffset, value: d.Value})
				mu.Unlock()
			case server.DeliveryGap:
				t.Errorf("steady consumer saw a gap: %+v", d)
				return
			case server.DeliveryEnd:
				return
			}
		}
	}()

	// The flaky consumer is driven inline: read a few deliveries, sever,
	// resume from the token, repeat. Deliberately misaligned with document
	// boundaries so tokens regularly land mid-document (seen > 0).
	var flakyGot []wireResult
	flakyStream, err := cl.Results(ctx, channel, flaky.ID)
	if err != nil {
		t.Fatal(err)
	}
	readFlaky := func(n int) {
		for i := 0; i < n; i++ {
			d, err := flakyStream.Next()
			if err != nil {
				t.Fatalf("flaky consumer after %d results: %v", len(flakyGot), err)
			}
			switch d.Type {
			case server.DeliveryResult:
				flakyGot = append(flakyGot, wireResult{doc: d.DocSeq, seq: d.Seq, nodeOffset: d.NodeOffset, value: d.Value})
			case server.DeliveryGap:
				t.Fatalf("flaky consumer saw a gap: %+v", d)
			case server.DeliveryEnd:
				t.Fatal("flaky consumer stream ended early")
			}
		}
	}
	interrupt := func() {
		token := flakyStream.Token()
		flakyStream.Close()
		flakyStream = resumeRetry(t, ctx, cl, token)
	}

	publish := func(seed int64) {
		doc := datagen.Ticker{Trades: 300, Seed: seed}.String()
		if _, err := cl.Publish(ctx, channel, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}

	// The campaign: documents interleaved with churn on OTHER subscriptions
	// (adds, replaces, removes — the twins stay put) and with flaky-consumer
	// interruptions, including one before anything was consumed (full-replay
	// token) and several mid-document.
	churn := []string{"//trade/volume", "//trade[price>100]/symbol/text()", "//bogus/nothing"}
	var churnIDs []string
	interrupt() // cursor-0 token: resume-from-nothing replays everything

	for i := int64(1); i <= 12; i++ {
		publish(i)
		switch i % 4 {
		case 0:
			q := churn[i/4%int64(len(churn))]
			resp, err := cl.Subscribe(ctx, channel, q)
			if err != nil {
				t.Fatal(err)
			}
			churnIDs = append(churnIDs, resp.ID)
		case 1:
			if len(churnIDs) > 0 {
				if err := cl.Unsubscribe(ctx, channel, churnIDs[0]); err != nil {
					t.Fatal(err)
				}
				churnIDs = churnIDs[1:]
			}
		case 2:
			if len(churnIDs) > 0 {
				if _, err := cl.Replace(ctx, channel, churnIDs[0], churn[i%int64(len(churn))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Consume a deliberately odd number so the sever points drift across
		// document boundaries, then sever every few documents.
		readFlaky(3)
		if i%3 == 0 {
			interrupt()
		}
	}

	// catchUp publishes a document with one known match and reads the flaky
	// stream through it: the consumer then holds everything the server
	// handed out, and the attachment's replay, if any, is over.
	marks := 0
	catchUp := func() {
		marks++
		mark := fmt.Sprintf("<price>%d</price>", 424200+marks)
		if _, err := cl.Publish(ctx, channel,
			strings.NewReader("<feed><trade><symbol>ACME</symbol>"+mark+"</trade></feed>")); err != nil {
			t.Fatal(err)
		}
		for len(flakyGot) == 0 || flakyGot[len(flakyGot)-1].value != mark {
			readFlaky(1)
		}
	}
	// The mid-document severs above left the token behind what the server
	// had handed out, so they replayed the WAL while the channel churned.
	replayDocs := func() int64 { return b.Metrics().Channels[channel].WAL.ReplayDocs }
	catchUp()
	if replayDocs() == 0 {
		t.Fatal("ReplayDocs = 0: the mid-document severs must replay the WAL")
	}
	// Severs with nothing outstanding: the token is the ring's handed
	// position, so the resume reads on from the subscription's ring, through
	// a document and a replace published after it, and re-evaluates nothing.
	const ringSevers = 2
	for j := int64(0); j < ringSevers; j++ {
		before := replayDocs()
		interrupt()
		publish(13 + j)
		if len(churnIDs) > 0 {
			if _, err := cl.Replace(ctx, channel, churnIDs[0], churn[j%int64(len(churn))]); err != nil {
				t.Fatal(err)
			}
		}
		catchUp()
		if n := replayDocs(); n != before {
			t.Fatalf("ring sever %d: ReplayDocs %d -> %d, want no replay: the consumer held everything handed out", j, before, n)
		}
	}

	// A sentinel document with exactly one known match bounds both streams
	// deterministically — shutdown must not be the barrier, because a broker
	// shutting down mid-replay legitimately truncates the catch-up (the
	// consumer's token stays valid for the next process).
	const sentinel = "<price>424242</price>"
	if _, err := cl.Publish(ctx, channel,
		strings.NewReader("<feed><trade><symbol>ACME</symbol>"+sentinel+"</trade></feed>")); err != nil {
		t.Fatal(err)
	}
	for len(flakyGot) == 0 || flakyGot[len(flakyGot)-1].value != sentinel {
		readFlaky(1)
	}
	flakyStream.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(steadyGot)
		caughtUp := n > 0 && steadyGot[n-1].value == sentinel
		mu.Unlock()
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("steady consumer never saw the sentinel")
		}
		time.Sleep(2 * time.Millisecond)
	}
	shutdown()
	steadyDone.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(steadyGot) == 0 {
		t.Fatal("steady consumer received nothing; test is vacuous")
	}
	if len(flakyGot) != len(steadyGot) {
		t.Fatalf("flaky consumer got %d deliveries, steady got %d", len(flakyGot), len(steadyGot))
	}
	for i := range steadyGot {
		if flakyGot[i] != steadyGot[i] {
			t.Fatalf("delivery %d diverged:\n  flaky:  %+v\n  steady: %+v", i, flakyGot[i], steadyGot[i])
		}
	}
	t.Logf("replay equivalence held over %d deliveries with interleaved severs (%d of them served from the ring)",
		len(steadyGot), ringSevers)
}
