package twigm

import (
	"repro/internal/sax"
	"repro/internal/xmlout"
)

// Recorder serializes one document's events, once, into one append-only
// buffer for every fragment-recording run its driver delivers to. It belongs
// to whoever drives the events: the engine's router (one per session) or a
// Run driven on its own. While any run holds an
// open element fragment, the driver serializes each event once — text and
// end tags before it delivers them (Before), start tags after (After) — and a
// candidate keeps only the (start, end) offsets of its fragment.
//
// A fragment becomes a string only when its candidate is delivered; a
// candidate dropped first is never copied. A span inside the string most
// recently copied out of the buffer becomes a substring of it, so in document
// order a nested result shares its enclosing result's bytes. The buffer
// resets only between events, once no fragment is open, after every closed
// span still unresolved has been made into a string. Memory is therefore
// bounded by the largest overlapping fragment span however many runs record
// it — what keeps the paper's "stable at 1MB" memory claim reachable (E2).
//
// Serialization follows the canonical rules of package xmlout exactly, so
// TwigM fragments compare byte-for-byte with the DOM oracle's.
//
//vitex:pooled
type Recorder struct {
	buf []byte
	// pendingTag: the last open tag's '>' is deferred so empty elements
	// self-close (<x/>), matching the canonical serialization.
	pendingTag   bool
	pendingLevel int
	// open counts the element fragments open across every run recording here.
	open int
	// noted is len(buf) after the last serialized event, and peak its
	// high-water mark this document.
	noted int
	peak  int
	// last is the most recent span copied out of buf, starting at lastAt.
	last   string
	lastAt int
	// spans lists candidates whose closed span may not be a string yet, of
	// any run recording here; rewind makes them strings.
	spans []*candidate
}

// Reset starts a new document, retaining the buffer's capacity.
func (rc *Recorder) Reset() {
	rc.buf = rc.buf[:0]
	rc.pendingTag = false
	rc.pendingLevel = 0
	rc.open = 0
	rc.noted = 0
	rc.peak = 0
	rc.last, rc.lastAt = "", 0
	rc.spans = rc.spans[:0]
}

// Peak reports the high-water mark of the buffer over the current document,
// measured at event boundaries.
func (rc *Recorder) Peak() int { return rc.peak }

// Before serializes what ev contributes ahead of its delivery: a text run or
// an end tag, while a fragment is open.
//
//vitex:hotpath
func (rc *Recorder) Before(ev *sax.Event) {
	if rc.open > 0 && ev.Kind != sax.StartElement {
		rc.serialize(ev)
	}
}

// After serializes a start tag once its delivery has registered the fragments
// it begins, and resets the buffer once no fragment is open.
//
//vitex:hotpath
func (rc *Recorder) After(ev *sax.Event) {
	if rc.open > 0 || len(rc.buf) > 0 {
		rc.after(ev)
	}
}

// after is After's work, outlined so the idle check inlines into the driver.
//
//vitex:hotpath
func (rc *Recorder) after(ev *sax.Event) {
	if rc.open == 0 {
		rc.rewind()
	} else if ev.Kind == sax.StartElement {
		rc.serialize(ev)
	}
}

// serialize appends ev to the buffer.
//
//vitex:hotpath
func (rc *Recorder) serialize(ev *sax.Event) {
	switch ev.Kind {
	case sax.StartElement:
		rc.flushPending()
		rc.buf = append(rc.buf, '<')
		rc.buf = append(rc.buf, ev.Name...)
		for _, a := range ev.Attrs {
			rc.buf = append(rc.buf, ' ')
			rc.buf = append(rc.buf, a.Name...)
			rc.buf = append(rc.buf, '=', '"')
			rc.buf = xmlout.AppendAttr(rc.buf, a.Value)
			rc.buf = append(rc.buf, '"')
		}
		rc.pendingTag = true
		rc.pendingLevel = ev.Depth
	case sax.Text:
		rc.flushPending()
		rc.buf = xmlout.AppendText(rc.buf, ev.Text)
	case sax.EndElement:
		if rc.pendingTag && rc.pendingLevel == ev.Depth {
			rc.buf = append(rc.buf, '/', '>')
			rc.pendingTag = false
		} else {
			rc.flushPending()
			rc.buf = append(rc.buf, '<', '/')
			rc.buf = append(rc.buf, ev.Name...)
			rc.buf = append(rc.buf, '>')
		}
	default:
		return
	}
	rc.noted = len(rc.buf)
	if rc.noted > rc.peak {
		rc.peak = rc.noted
	}
}

//vitex:hotpath
func (rc *Recorder) flushPending() {
	if rc.pendingTag {
		rc.buf = append(rc.buf, '>')
		rc.pendingTag = false
	}
}

// begin opens a fragment whose start tag has not been serialized yet and
// returns its start offset. A pending parent open tag closes first, or its
// '>' would land inside the new fragment.
//
//vitex:hotpath
func (rc *Recorder) begin() int {
	rc.flushPending()
	rc.open++
	return len(rc.buf)
}

// keep parks a closed span that is not a string yet until its candidate
// resolves or the buffer resets.
//
//vitex:hotpath
func (rc *Recorder) keep(c *candidate) {
	rc.spans = append(rc.spans, c)
}

// fragment returns the candidate's value, making its closed span a string
// first: a substring of the span last copied out when it lies inside it, a
// copy otherwise.
func (rc *Recorder) fragment(c *candidate) string {
	if !c.spanned {
		return c.value
	}
	c.spanned = false
	if rc.last != "" && c.start >= rc.lastAt && c.end <= rc.lastAt+len(rc.last) {
		c.value = rc.last[c.start-rc.lastAt : c.end-rc.lastAt]
	} else {
		rc.last, rc.lastAt = string(rc.buf[c.start:c.end]), c.start
		c.value = rc.last
	}
	return c.value
}

// rewind makes every closed span still unresolved into a string — a pending
// candidate's, or one the ordered re-sequencer has not released — then
// empties the buffer for the next fragment.
func (rc *Recorder) rewind() {
	for _, c := range rc.spans {
		rc.fragment(c)
	}
	rc.spans = rc.spans[:0]
	rc.buf = rc.buf[:0]
	rc.pendingTag = false
	rc.noted = 0
	rc.last, rc.lastAt = "", 0
}

// recording is one of an evaluator's open element fragments: its candidate
// and the depth of the element whose end tag completes it.
type recording struct {
	cand  *candidate
	level int
}

// fragmentSet is what a Run keeps of its open element fragments: the recorder
// they are spans of, the open ones, and where the first of them began.
type fragmentSet struct {
	rec    *Recorder
	active []recording
	base   int
}

func (f *fragmentSet) reset(rec *Recorder) {
	f.rec = rec
	f.active = f.active[:0]
	f.base = 0
}

// open starts recording an element candidate's fragment; its start tag is
// serialized after this delivery.
//
//vitex:hotpath
func (f *fragmentSet) open(c *candidate, level int) {
	c.start = f.rec.begin()
	c.open = true
	if len(f.active) == 0 {
		f.base = c.start
	}
	f.active = append(f.active, recording{cand: c, level: level})
}

// closeAt completes the fragment rooted at the element ending at depth, which
// the driver serialized before the delivery, and returns its candidate (nil
// when none is open there: a single output node yields one candidate per
// element, so there is at most one).
//
//vitex:hotpath
func (f *fragmentSet) closeAt(depth int, st *Stats) *candidate {
	for i := len(f.active) - 1; i >= 0; i-- {
		if f.active[i].level != depth {
			continue
		}
		c := f.active[i].cand
		f.unrecord(i, st)
		c.end = f.rec.noted
		c.spanned = true
		return c
	}
	return nil
}

// forget stops recording a discarded candidate; it is never copied.
//
//vitex:hotpath
func (f *fragmentSet) forget(c *candidate, st *Stats) {
	c.spanned = false
	if !c.open {
		return
	}
	for i := range f.active {
		if f.active[i].cand == c {
			f.unrecord(i, st)
			return
		}
	}
}

// unrecord closes active fragment i. Swap-remove: active's order is never
// significant. The private-buffer equivalent — the bytes from the start of the
// first open span — ends with the last open fragment, which is when
// PeakBufferedBytes takes its measure.
//
//vitex:hotpath
func (f *fragmentSet) unrecord(i int, st *Stats) {
	f.active[i].cand.open = false
	last := len(f.active) - 1
	f.active[i] = f.active[last]
	f.active = f.active[:last]
	f.rec.open--
	if len(f.active) == 0 {
		f.notePeak(st)
	}
}

// notePeak folds the bytes spanned since the first open fragment began into
// st.PeakBufferedBytes.
//
//vitex:hotpath
func (f *fragmentSet) notePeak(st *Stats) {
	if n := f.rec.noted - f.base; n > st.PeakBufferedBytes {
		st.PeakBufferedBytes = n
	}
}

// record starts recording an element candidate's fragment. In CountOnly mode
// the candidate is left closed (no buffering) and delivers on confirmation.
//
//vitex:hotpath
func (r *Run) record(c *candidate, level int) {
	if !r.opts.CountOnly {
		r.open(c, level)
	}
}

// closeFragments completes the fragment rooted at this end tag: a confirmed
// candidate delivers now, a pending one keeps its span until it resolves or
// the buffer resets.
//
//vitex:hotpath
func (r *Run) closeFragments(depth int) {
	c := r.closeAt(depth, &r.stats)
	if c == nil {
		return
	}
	if c.state == candConfirmed {
		r.deliver(c)
	}
	if c.spanned {
		r.rec.keep(c)
	}
}
