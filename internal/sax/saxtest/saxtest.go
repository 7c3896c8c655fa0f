// Package saxtest is test support for the sax event model, with two tools:
//
//   - StdDriver, the encoding/xml reference front-end. Production reads XML
//     only through internal/xmlscan; this adapter is what the scanner is
//     held to, event for event and result for result, and what the DOM
//     oracles build on, so no binary links encoding/xml.
//   - Poison and PoisonDriver, for the sax.Handler lifetime rule: a wrapper
//     that destroys everything transient in a batch the moment HandleBatch
//     returns, so a consumer that kept a Text, an Attr.Value, an Attrs slice
//     or the batch itself without cloning fails loudly instead of by luck of
//     arena reuse.
//
// Poisoning writes through the strings it is handed. That is only sound over
// a producer whose transient strings are views of memory it owns and
// recycles — internal/xmlscan. Never poison StdDriver: encoding/xml's strings
// may alias runtime-shared storage.
package saxtest

import (
	"unsafe"

	"repro/internal/sax"
)

// Poison returns a handler that forwards each batch to h and then overwrites
// the batch's character data and attribute values with 0xFF bytes and its
// events and attributes with sentinels.
func Poison(h sax.Handler) sax.Handler { return poisoner{h} }

type poisoner struct{ h sax.Handler }

func (p poisoner) HandleBatch(evs []sax.Event) error {
	err := p.h.HandleBatch(evs)
	for i := range evs {
		ev := &evs[i]
		scribble(ev.Text)
		for j := range ev.Attrs {
			scribble(ev.Attrs[j].Value)
			ev.Attrs[j] = sax.Attr{Name: "POISONED", Value: "POISONED", Prefix: "POISONED", Local: "POISONED", NameID: sax.SymUnknown}
		}
		*ev = sax.Event{Kind: sax.Kind(0xFF), Name: "POISONED", Prefix: "POISONED", Local: "POISONED", Depth: -1, Text: "POISONED", Offset: -1}
	}
	return err
}

func scribble(s string) {
	b := unsafe.Slice(unsafe.StringData(s), len(s))
	for i := range b {
		b[i] = 0xFF
	}
}

// PoisonDriver wraps d (an xmlscan.Scanner) so that every handler it runs is
// poisoned: the way to put dom.Build, naive.Collect or twigm.Collect — which
// take a driver, not a handler — over the poisoning sink.
func PoisonDriver(d sax.Driver) sax.Driver { return poisonDriver{d} }

type poisonDriver struct{ d sax.Driver }

func (p poisonDriver) Run(h sax.Handler) error { return p.d.Run(Poison(h)) }
