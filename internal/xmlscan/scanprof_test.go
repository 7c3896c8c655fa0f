package xmlscan

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/sax"
)

type nullSink struct{ n int64 }

func (c *nullSink) HandleBatch(evs []sax.Event) error {
	c.n += int64(len(evs))
	return nil
}

func BenchmarkPureScanTicker(b *testing.B) {
	doc := datagen.Ticker{Trades: 20000, Seed: 1}.String()
	s := NewScanner(strings.NewReader(doc))
	sink := &nullSink{}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset(strings.NewReader(doc))
		if err := s.Run(sink); err != nil {
			b.Fatal(err)
		}
	}
}
