package xmlscan

import (
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/sax"
)

// keepNames is a Projection that observes the tags of the names it holds and
// nothing else.
type keepNames struct{ ids map[int32]bool }

func (k keepNames) Tag(id int32) (keep, root bool) { return k.ids[id], false }
func (k keepNames) Attr(int32) bool                { return false }

// batchFunc adapts a function to sax.Handler, batch by batch.
type batchFunc func(evs []sax.Event) error

func (f batchFunc) HandleBatch(evs []sax.Event) error { return f(evs) }

// projectedScanner returns a scanner over r projected to the tags named a.
func projectedScanner(r io.Reader) *Scanner {
	syms := sax.NewSymbols()
	a := syms.Intern("a")
	s := NewScannerWith(nil, syms)
	s.Reset(r)
	s.Project(keepNames{ids: map[int32]bool{a: true}})
	return s
}

// TestProjectedOutStretchReachesHandler: while the scanner is in a stretch of
// the document its projection omits, the handler is still handed a batch — an
// empty one — before every read of the input, and a handler error there stops
// the scan before the next read.
func TestProjectedOutStretchReachesHandler(t *testing.T) {
	stop := errors.New("stop")
	delivered := 0
	r := &stallReader{
		chunks:    []string{"<r> ", "<x>1</x>", "<x>2</x>", "<a/>", "</r>"},
		delivered: &delivered,
	}
	var sizes []int
	h := batchFunc(func(evs []sax.Event) error {
		delivered++
		sizes = append(sizes, len(evs))
		if len(evs) == 0 {
			return stop
		}
		return nil
	})
	if err := projectedScanner(r).Run(h); !errors.Is(err, stop) {
		t.Fatalf("err = %v, want %v", err, stop)
	}
	// StartDocument goes out before the first read, and the empty batch
	// before the second stops the scan: "<x>1</x>" is never read.
	if want := []int{1, 0}; !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	if len(r.seen) != 1 {
		t.Fatalf("%d reads, want 1", len(r.seen))
	}
}

// TestProjectedOutStretchFlushesPerBatchSpan: with the whole document in one
// read, a long omitted stretch still reaches the handler once per eventBatch
// scanned events, as the full stream would.
func TestProjectedOutStretchFlushesPerBatchSpan(t *testing.T) {
	const elems = 1000
	doc := "<r>" + strings.Repeat("<x/>", elems) + "<a/></r>"
	empty, events := 0, 0
	h := batchFunc(func(evs []sax.Event) error {
		if len(evs) == 0 {
			empty++
		}
		events += len(evs)
		return nil
	})
	s := projectedScanner(strings.NewReader(doc))
	if err := s.Run(h); err != nil {
		t.Fatal(err)
	}
	scanned, _, _, ok := s.Scanned(0)
	if !ok || scanned != 2*elems+6 {
		t.Fatalf("Scanned = %d, %v; want %d, true", scanned, ok, 2*elems+6)
	}
	if events != 4 {
		t.Fatalf("%d events queued, want 4 (document bounds and <a/>)", events)
	}
	if least := 2 * elems / eventBatch; empty < least {
		t.Fatalf("%d empty batches over %d omitted events, want at least %d", empty, 2*elems, least)
	}
}
