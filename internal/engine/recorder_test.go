package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/twigm"
)

// tableQueries all record tables, which Book nests TableDepth deep in every
// copy: the outermost table's fragment overlaps every other one.
var tableQueries = []string{
	"//section//section//section//table",
	"//table",
	"//section[author]//table",
	"//section[.//position]//table[cell]",
}

// TestOneRecordingPerDocument pins the recorder's memory bound: the router
// serializes a document once however many machines record it, so its peak is
// at most the largest overlapping fragment span (the outermost table) and the
// same for one table-recording machine and for four. Each machine's
// PeakBufferedBytes keeps measuring its own fragments' span; the pinned
// values are what a private buffer per machine measured before recording
// moved into the router.
func TestOneRecordingPerDocument(t *testing.T) {
	wantPeak := map[int]int{6: 241, 9: 367, 12: 511}
	for _, depth := range []int{6, 9, 12} {
		doc := datagen.Book{SectionDepth: 4, TableDepth: depth, Repeat: 6, AuthorEvery: 2, PositionEvery: 3}.String()
		t.Run(fmt.Sprintf("depth=%d/%s", depth, serial), func(t *testing.T) {
			var peaks []int
			for _, n := range []int{1, 4} {
				outer := 0
				rows := &machineRows{rows: make([]twigm.Stats, n)}
				plan := Plan{
					Options: twigm.Options{Ordered: true, EmitFrom: func(_ int, r twigm.Result) error {
						outer = max(outer, len(r.Value))
						return nil
					}},
					Rows: rows,
				}
				e := mustEngine(t, tableQueries[:n]...)
				p := newPooledEval(e)
				p.ses.scan.Reset(strings.NewReader(doc))
				if _, err := p.ses.stream(context.Background(), e, e.cur.Load(), p.ses.scan, plan); err != nil {
					t.Fatal(err)
				}
				for d, st := range rows.rows {
					if st.PeakBufferedBytes != wantPeak[depth] {
						t.Errorf("%d machines: machine %d PeakBufferedBytes = %d, want %d", n, d, st.PeakBufferedBytes, wantPeak[depth])
					}
				}
				peak := p.ses.rt.rec.Peak()
				if peak == 0 || peak > outer {
					t.Fatalf("%d machines: recorder peak %d bytes, want 1..%d (the outermost table)", n, peak, outer)
				}
				peaks = append(peaks, peak)
			}
			if peaks[0] != peaks[1] {
				t.Fatalf("recorder peak %d bytes for one machine, %d for four: recording is not shared", peaks[0], peaks[1])
			}
		})
	}
}
