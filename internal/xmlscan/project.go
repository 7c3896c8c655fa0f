// Projection: the scanner queues only the events its consumer can observe.
//
// A standing query set knows before a document starts which element and
// attribute names its steps test, and which elements it reads the string value
// or the fragment of (its value roots). Every other event changes no result,
// yet materializing it — the event write, its arena copies, the handler's
// routing — is most of what a markup-dense scan costs. Under a Projection the
// scanner still reads, validates and depth-tracks every token exactly as
// without one, and raises the same errors at the same offsets; it only skips
// queueing what no query can see: a tag whose name and attributes are all
// unlisted, and every text run outside the value roots. Inside an open value
// root every event is queued. This is document projection (Marian & Siméon,
// "Projecting XML Documents", VLDB 2003) done in the stream.
//
// Every event is still numbered: each queued event carries its 1-based
// ordinal in the full scan (sax.Event.Ordinal), and the scanner counts the
// scan's events, elements and depth itself (Scanned), so the consumer's
// event-indexed clocks and scan counters do not move.
package xmlscan

import "repro/internal/sax"

// Projection names what a document's consumer can observe, by the symbol ID
// of a local name (the scanner's symbol table, NewScannerWith). An ID no query
// interned — sax.SymUnknown — is never observable. A projection's answers
// never change: the scanner keeps them for as long as the same projection is
// set, across documents.
type Projection interface {
	// Tag reports whether the tags of an element with this local name are
	// observable for the name alone (keep), and whether the element is a value
	// root: everything inside it, text and markup, is observable.
	Tag(id int32) (keep, root bool)
	// Attr reports whether an attribute with this local name is observable:
	// a start tag carrying one is queued, with all of its attributes.
	Attr(id int32) bool
}

// openElem is an open element on the scanner's stack: its interned name, and
// whether its tags are queued (its end tag goes where its start tag went).
type openElem struct {
	symEntry
	keep bool
}

// scanMark is the scan's counters through one queued event.
type scanMark struct {
	ordinal, elements int64
	maxDepth          int
}

// Verdict bits, cached by symbol ID (Scanner.verdicts).
const (
	tagKnown uint8 = 1 << iota
	tagKeep
	tagRoot
	attrKnown
	attrKeep
)

// Project sets the projection the next Run scans under; nil queues every
// event. Reset clears it.
//
// Under a projection the handler is also handed empty batches: one before
// every read of the input, and one whenever eventBatch events have been
// scanned since the last batch, queued or not. An omitted stretch of the
// document thus still reaches the handler as often as a full stream would,
// and a handler that stops the scan (on a cancellation, say) stops it there.
func (s *Scanner) Project(p Projection) {
	s.proj = p
	if p != s.projFor {
		clear(s.verdicts)
		s.projFor = p
	}
}

// tagVerdict is the projection's Tag, cached: a feed's vocabulary recurs, so
// past the first document under a projection a tag costs one byte load.
//
//vitex:hotpath
func (s *Scanner) tagVerdict(id int32) (keep, root bool) {
	if uint32(id) < uint32(len(s.verdicts)) {
		if v := s.verdicts[id]; v&tagKnown != 0 {
			return v&tagKeep != 0, v&tagRoot != 0
		}
	}
	keep, root = s.proj.Tag(id)
	v := tagKnown
	if keep {
		v |= tagKeep
	}
	if root {
		v |= tagRoot
	}
	s.remember(id, v)
	return keep, root
}

// attrVerdict is the projection's Attr, cached like tagVerdict.
//
//vitex:hotpath
func (s *Scanner) attrVerdict(id int32) bool {
	if uint32(id) < uint32(len(s.verdicts)) {
		if v := s.verdicts[id]; v&attrKnown != 0 {
			return v&attrKeep != 0
		}
	}
	keep := s.proj.Attr(id)
	v := attrKnown
	if keep {
		v |= attrKeep
	}
	s.remember(id, v)
	return keep
}

// remember files verdict bits for a symbol of the scanner's table, growing
// the cache to cover it; other IDs are not cached.
func (s *Scanner) remember(id int32, v uint8) {
	if id <= 0 || s.syms == nil || int(id) > s.syms.Len() {
		return
	}
	for len(s.verdicts) <= int(id) {
		s.verdicts = append(s.verdicts, 0)
	}
	s.verdicts[id] |= v
}

// Scanned reports the counters of the last Run made under a projection: the
// events it scanned, the start tags among them and the deepest element depth,
// queued or not — the counts a consumer of the unprojected stream would have
// made. through is the ordinal of the last event the consumer handled: when it
// failed, the counts stop at that event, as its own would have; otherwise they
// cover the whole scan, syntax error included. ok is false when no Run has
// scanned under a projection since Reset: what its consumer saw omitted
// nothing, so the consumer's own counts are exact.
func (s *Scanner) Scanned(through int64) (events, elements int64, maxDepth int, ok bool) {
	if s.proj == nil || !s.started {
		return 0, 0, 0, false
	}
	if s.herr == nil {
		return s.events, s.elements, s.maxDepth, true
	}
	// The consumer handled the batch before the failing one whole, so its
	// last event is one of the failing batch's or that batch's last.
	m := s.prev
	for _, k := range s.marks {
		if k.ordinal > through {
			break
		}
		m = k
	}
	return m.ordinal, m.elements, m.maxDepth, true
}

// count counts one scanned event's element and depth, queued or not. It runs
// under a projection only: without one the consumer sees every event and
// counts them itself.
//
//vitex:hotpath
func (s *Scanner) count(k sax.Kind, depth int) {
	if k == sax.StartElement {
		s.elements++
		if depth > s.maxDepth {
			s.maxDepth = depth
		}
	}
}

// skip counts an event the projection omits. A batch goes out once it spans
// eventBatch scanned events, queued or not and empty or not, so omitting
// events neither holds back the ones queued before them nor keeps the handler
// from stopping the scan.
//
//vitex:hotpath
func (s *Scanner) skip(k sax.Kind, depth int) error {
	s.events++
	s.count(k, depth)
	return s.batchQueued()
}

// stamp numbers the event just written into a batch slot with its ordinal
// and, under a projection, counts it and marks the counters through it.
//
//vitex:hotpath
func (s *Scanner) stamp(ev *sax.Event) {
	s.events++
	ev.Ordinal = s.events
	if s.proj != nil {
		s.count(ev.Kind, ev.Depth)
		s.marks = append(s.marks, scanMark{ordinal: s.events, elements: s.elements, maxDepth: s.maxDepth})
	}
}

// keepTag decides whether the start tag of an element named id, at depth
// s.depth+1 and carrying attrs, is queued, and opens a value root when the
// element is one and none is open.
//
//vitex:hotpath
func (s *Scanner) keepTag(id int32, attrs []sax.Attr) bool {
	if s.proj == nil || s.rootAt > 0 {
		return true
	}
	keep, root := s.tagVerdict(id)
	if root {
		s.rootAt = s.depth + 1
		return true
	}
	if keep {
		return true
	}
	for i := range attrs {
		if s.attrVerdict(attrs[i].NameID) {
			return true
		}
	}
	return false
}

// keepText reports whether a text run at the current depth is queued: without
// a projection, or inside a value root.
//
//vitex:hotpath
func (s *Scanner) keepText() bool { return s.proj == nil || s.rootAt > 0 }

// openElement pushes an element whose start tag was just scanned.
//
//vitex:hotpath
func (s *Scanner) openElement(name symEntry, keep bool) {
	s.depth++
	// Written in place: an openElem literal copied in costs a store-forwarding
	// stall per tag.
	s.stack = append(s.stack, openElem{})
	e := &s.stack[len(s.stack)-1]
	e.symEntry, e.keep = name, keep
}

// endElement ends the innermost open element, e, whose end tag (or the end of
// whose self-closing tag) starts at off: it queues the end tag where the start
// tag was queued, and counts it either way.
//
//vitex:hotpath
func (s *Scanner) endElement(e *openElem, off int64) error {
	if e.keep {
		if err := s.emitTag(sax.EndElement, e.symEntry, s.depth, nil, off); err != nil {
			return err
		}
	} else if err := s.skip(sax.EndElement, s.depth); err != nil {
		return err
	}
	s.closeElement()
	return nil
}
