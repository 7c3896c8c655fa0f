// Package xmlscan is a from-scratch streaming XML scanner: the "XML SAX
// parser" substrate of the ViteX architecture (ICDE 2005, figure 2). It reads
// an XML byte stream from an io.Reader in a single forward pass and emits
// sax.Event values — no DOM, no lookahead beyond the current token, memory
// bounded by the largest single token (tag or coalesced text run).
//
// Supported XML surface: elements, attributes (single or double quoted),
// self-closing tags, character data, CDATA sections, comments, processing
// instructions, XML declarations, DOCTYPE declarations (including bracketed
// internal subsets, which are skipped), and entity references — the five
// predefined entities plus decimal and hexadecimal character references.
// Unsupported (rejected or ignored, see scan tests): external DTD entity
// expansion and namespace processing; ViteX matches lexical QNames.
//
// The scanner enforces the well-formedness properties the downstream TwigM
// machine relies on: tags balance, exactly one root element, and no character
// data outside the root other than whitespace. Under a Projection
// (project.go) it queues only the events its consumer can observe, and checks
// all the rest as before.
package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/sax"
)

// Scanner streams sax events from an io.Reader. Create with NewScanner (or
// NewScannerWith to resolve names against a shared symbol table); a Scanner
// handles one document at a time and is not safe for concurrent use, but can
// be reused across documents with Reset, keeping its buffers and its name
// intern cache warm.
//
//vitex:pooled
type Scanner struct {
	r      io.Reader
	buf    []byte //vitex:keep warmed read buffer, contents invalidated by the pos/end reset
	pos    int    // next unread byte in buf
	end    int    // valid bytes in buf
	ltEnd  int    // one past the last '<' in buf[:end], 0 if none (wholeTag)
	off    int64  // byte offset of buf[pos] in the input
	err    error  // sticky read error (io.EOF when input exhausted)
	depth  int
	stack  []openElem // open elements, for balance checking and end-tag fast path
	text   []byte     // pending character-data run (reusable)
	textAt int64      // offset of the first byte of the pending text run
	// textBorrow is the zero-copy form of a pending text run: a slice of the
	// read buffer itself, used when a run is one clean stretch that starts
	// and ends inside the current window (the dominant shape). Anything that
	// would invalidate the alias — the window moving (fill), more content
	// joining the run (references, CDATA merges) — first copies it into
	// text via materializeText. Invariant: textBorrow != nil implies
	// len(text) == 0.
	textBorrow []byte
	// textNeedsCheck marks the pending run as containing expanded reference
	// text, the one content source the fused scan loops do not validate
	// inline; flushText then runs the full validateChars pass over the run.
	textNeedsCheck bool
	// seenRoot records that the root element has closed.
	seenRoot bool
	started  bool
	// bomChecked records that the leading byte-order mark, if any, has
	// been handled (UTF-8 BOM skipped, UTF-16/32 BOMs rejected).
	bomChecked bool
	// syms resolves names to shared symbol IDs (nil: events carry
	// sax.SymNone). interned caches the resolution per distinct name for
	// the scanner's lifetime (bounded by maxNameCacheEntries), so each
	// name costs one string allocation and one table lookup per scanner —
	// not per occurrence; nameBuf is the scratch the name bytes are
	// collected into before the cache lookup.
	syms     *sax.Symbols        //vitex:keep shared symbol table identity, fixed at construction
	interned map[string]symEntry //vitex:keep cross-document name cache; Reset drops stale entries itself
	// nameSlots is the direct-mapped front of the name cache: a fixed
	// power-of-2 table indexed by a hash computed over the name bytes,
	// answering the overwhelmingly common case (a feed's recurring
	// vocabulary) without the hashed map lookup. Misses and collisions fall
	// through to the interned map, which stays the ground truth.
	nameSlots []nameSlot //vitex:keep cross-document cache front; Reset invalidates with interned
	nameBuf   []byte     //vitex:keep name scratch, truncated before each use
	// symsLen is the symbol-table length observed at the last Reset, the
	// staleness check for cached SymUnknown resolutions (see Reset).
	symsLen int
	// entities holds general entities declared in the DOCTYPE internal
	// subset (<!ENTITY name "value">). Values are raw replacement text;
	// they are expanded recursively at reference sites with depth and
	// size guards (see expandEntity).
	entities map[string]string
	// ---- event delivery (see batch.go) ----
	// h is the handler of the current Run; herr is the first error it
	// returned (sticky: no further batch is delivered, and Run reports it in
	// preference to whatever the scan ran into afterwards).
	// batch/batchAttrs/arena are the pooled arrays one batch of events
	// borrows from, truncated wholesale at each flush.
	h          sax.Handler
	herr       error
	batch      []sax.Event //vitex:keep warmed batch array, truncated at each flush
	batchAttrs []sax.Attr  //vitex:keep warmed attr backing array, truncated at each flush
	arena      []byte      //vitex:keep warmed character-data arena, truncated at each flush
	batchLimit int         //vitex:keep events per batch, fixed at construction (eventBatch)
	// ---- projection (see project.go) ----
	// proj is the document's projection, nil to queue every event; rootAt is
	// the depth of the outermost open value root, 0 outside every one.
	proj   Projection
	rootAt int
	// verdicts caches proj's answers by symbol ID (tagVerdict), for as long
	// as the projection set is projFor.
	verdicts []uint8    //vitex:keep projection answers, valid across documents while projFor is set; Project clears them for another
	projFor  Projection //vitex:keep the projection verdicts came from, compared by Project
	// events is the ordinal of the last event scanned, queued or not; under a
	// projection elements and maxDepth count the scanned start tags and their
	// deepest depth.
	events   int64
	elements int64
	maxDepth int
	// marks holds the counters through each event of the batch being
	// delivered, and prev those through the last event of the batch before:
	// what Scanned reports when the handler fails. Kept under a projection
	// only.
	marks []scanMark
	prev  scanMark
	// batchFrom is the ordinal of the first event scanned since the last
	// flush.
	batchFrom int64
}

// symEntry is one intern-cache slot: the canonical string for a name, its
// prefix/local split, and the symbol ID of the LOCAL part (sax.SymNone
// without a table, sax.SymUnknown for locals the table does not contain and
// for namespace-declaration attribute names).
type symEntry struct {
	name   string
	prefix string
	local  string
	id     int32
}

// nameSlot is one direct-mapped name-cache entry; hash disambiguates the
// slot's occupant (the full byte comparison against e.name decides).
type nameSlot struct {
	hash uint32
	e    symEntry
}

// nameSlotCount sizes the direct-mapped name cache. Real feeds have tens of
// distinct names; 512 slots make collisions rare while the table (~32KB)
// stays resident for a pooled scanner.
const nameSlotCount = 512

// Entity-expansion guards: nesting depth and total expanded size, the
// classic defenses against exponential-entity inputs ("billion laughs").
const (
	maxEntityDepth  = 16
	maxEntityExpand = 1 << 20
)

// maxNameCacheEntries bounds the name intern cache the same way: a
// long-lived scanner fed attacker-controlled or generated tag names must
// not grow without bound. Past the cap, lookups still hit; new names are
// resolved uncached.
const maxNameCacheEntries = 1 << 16

// DefaultBufferSize is the initial read buffer size. The buffer grows only
// when a single token exceeds it.
const DefaultBufferSize = 64 << 10

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{
		r:          r,
		buf:        make([]byte, DefaultBufferSize),
		interned:   make(map[string]symEntry),
		batchLimit: eventBatch,
		batchFrom:  1,
	}
}

// NewScannerWith returns a Scanner that resolves element and attribute names
// against syms: events carry the table's ID for interned names and
// sax.SymUnknown for names the table does not know. The table is only read,
// never grown, so any number of scanners may share one. The table may grow
// underneath the scanner (live query sets intern new names on Add); Reset
// notices the growth and drops cached not-found resolutions, so names that
// became known resolve correctly on the next document.
func NewScannerWith(r io.Reader, syms *sax.Symbols) *Scanner {
	s := NewScanner(r)
	s.syms = syms
	return s
}

// Reset prepares the Scanner for a new document read from r, retaining the
// read buffer and the name intern cache (names repeat across documents of a
// feed; re-resolving them would be wasted work). If the shared symbol table
// grew since the last Reset, cached SymUnknown resolutions are dropped: a
// name unknown then may be a standing query's subscription now. Positive
// resolutions stay — IDs are append-only, a name once interned never
// changes its ID.
func (s *Scanner) Reset(r io.Reader) {
	if s.syms != nil {
		if n := s.syms.Len(); n != s.symsLen {
			s.symsLen = n
			for name, e := range s.interned {
				if e.id == sax.SymUnknown {
					delete(s.interned, name)
				}
			}
			// The direct-mapped front may hold the dropped resolutions;
			// clearing it wholesale is cheaper than probing (it refills
			// from the map on the next document).
			for i := range s.nameSlots {
				s.nameSlots[i] = nameSlot{}
			}
		}
	}
	s.r = r
	s.pos, s.end, s.ltEnd = 0, 0, 0
	s.off = 0
	s.err = nil
	s.depth = 0
	s.stack = s.stack[:0]
	s.text = s.text[:0]
	s.textBorrow = nil
	s.textAt = 0
	s.textNeedsCheck = false
	// A pooled Scanner must not pin the handler (the session) it last
	// served.
	s.h = nil
	s.herr = nil
	s.batch = s.batch[:0]
	s.batchAttrs = s.batchAttrs[:0]
	s.arena = s.arena[:0]
	s.seenRoot = false
	s.started = false
	s.bomChecked = false
	s.entities = nil
	s.proj = nil
	s.rootAt = 0
	s.events, s.elements, s.maxDepth = 0, 0, 0
	s.marks = s.marks[:0]
	s.prev = scanMark{}
	s.batchFrom = 1
}

// intern resolves a name's canonical string, QName split and symbol ID
// through the per-scanner cache (bounded; retained across Reset so recurring
// feed vocabulary costs one allocation and one table lookup per scanner, not
// per occurrence). The map lookup on string(b) does not allocate. The symbol
// ID is that of the local name — name tests match locals — except for
// namespace-declaration attribute names, which get sax.SymUnknown so they
// never route.
//
//vitex:hotpath
func (s *Scanner) intern(b []byte) symEntry {
	if e, ok := s.interned[string(b)]; ok {
		return e
	}
	return s.internMiss(b)
}

// internMiss is the cold half of intern: it materializes and caches the
// entry for a name seen for the first time (once per distinct name per
// scanner lifetime, so its string allocation stays off the steady state).
func (s *Scanner) internMiss(b []byte) symEntry {
	name := string(b)
	prefix, local := sax.SplitName(name)
	e := symEntry{name: name, prefix: prefix, local: local, id: sax.SymNone}
	if s.syms != nil {
		if sax.IsNamespaceDecl(name) {
			e.id = sax.SymUnknown
		} else {
			e.id = s.syms.ID(local)
		}
	}
	if len(s.interned) < maxNameCacheEntries {
		s.interned[name] = e
	}
	return e
}

// SyntaxError describes a malformed-XML failure with its byte offset.
type SyntaxError struct {
	Offset int64
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlscan: syntax error at byte %d: %s", e.Offset, e.Msg)
}

func (s *Scanner) syntaxf(off int64, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// Outlined error constructors for the scan fast paths: passing scalar
// arguments to syntaxf's variadic boxes them into interfaces at the call
// site, an allocation paid even on the non-error path in some inlining
// states. Building these errors in cold helpers keeps the hot scan
// functions allocation-free (hotalloc proves it).

func (s *Scanner) errBadNameStart(off int64, c byte) error {
	return s.syntaxf(off, "invalid name start character %q", c)
}

// errNameStartAt is the diagnostic for a tag's name that does not start at
// buffer index i, as readNameBytes words it.
func (s *Scanner) errNameStartAt(i int) error {
	if i >= s.end {
		return s.syntaxf(s.offAt(i), "unexpected EOF, expected name")
	}
	return s.errBadNameStart(s.offAt(i), s.buf[i])
}

// errExpectAt is the diagnostic for the byte want missing at buffer index i
// of a tag, as expect words it.
func (s *Scanner) errExpectAt(i int, want byte) error {
	if i >= s.end {
		return s.syntaxf(s.offAt(i), "unexpected EOF, expected %q", string(want))
	}
	return s.syntaxf(s.offAt(i), "expected %q, found %q", string(want), s.buf[i])
}

// errQuoteAt is the diagnostic for an attribute value that does not open
// with a quote at buffer index i.
func (s *Scanner) errQuoteAt(i int) error {
	if i >= s.end {
		return s.syntaxf(s.offAt(i), "unexpected EOF, expected attribute value")
	}
	return s.syntaxf(s.offAt(i), "attribute value must be quoted, found %q", s.buf[i])
}

func (s *Scanner) errInvalidName(start int64, b []byte) error {
	return s.syntaxf(start, "invalid XML name %q", b)
}

func (s *Scanner) errEOFInTag(start int64, name string) error {
	return s.syntaxf(start, "unexpected EOF in tag <%s>", name)
}

func (s *Scanner) errDupAttr(start int64, attr, elem string) error {
	return s.syntaxf(start, "duplicate attribute %q in <%s>", attr, elem)
}

func (s *Scanner) errUnmatchedEnd(start int64, name string) error {
	return s.syntaxf(start, "unmatched end tag </%s>", name)
}

func (s *Scanner) errMismatchedEnd(start int64, name, open string) error {
	return s.syntaxf(start, "mismatched end tag: </%s> closes <%s>", name, open)
}

func (s *Scanner) errIllegalChar(at int64, r rune) error {
	return s.syntaxf(at, "illegal character code %U", r)
}

// Run implements sax.Driver: it parses the whole document, delivering events
// to h in batches of up to eventBatch, and returns the first handler or
// syntax error. Character data and attribute values are views over recycled
// arenas, dead when HandleBatch returns (the sax.Handler lifetime rule).
func (s *Scanner) Run(h sax.Handler) error {
	if s.started {
		return fmt.Errorf("xmlscan: Scanner already ran; call Reset before reuse")
	}
	s.started = true
	s.h = h
	if cap(s.batch) < s.batchLimit {
		// batchSlot extends without reallocating; size the array once.
		s.batch = make([]sax.Event, 0, s.batchLimit)
	}
	err := s.run()
	// Deliver everything scanned before the failure point. A handler error
	// among those events aborted the consumer first, so it takes precedence
	// over a syntax error further down the input.
	if herr := s.flushBatch(); herr != nil {
		err = herr
	}
	s.h = nil
	return err
}

func (s *Scanner) run() error {
	if err := s.emit(sax.StartDocument, 0, "", 0); err != nil {
		return err
	}
	for {
		done, err := s.step()
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if len(s.stack) > 0 {
		return s.syntaxf(s.off, "unexpected EOF: %d element(s) still open, innermost <%s>", len(s.stack), s.stack[len(s.stack)-1].name)
	}
	if !s.seenRoot {
		return s.syntaxf(s.off, "document has no root element")
	}
	return s.emit(sax.EndDocument, 0, "", s.off)
}

// skipBOM handles a leading byte-order mark: a UTF-8 BOM (ubiquitous in
// real-world feeds) is consumed — byte offsets keep counting it, so node
// offsets stay positions in the raw input — while UTF-16/32 BOMs are
// rejected with a clear unsupported-encoding error instead of the tag-soup
// syntax error the bytes would otherwise produce.
func (s *Scanner) skipBOM() error {
	s.bomChecked = true
	for s.end-s.pos < 4 && s.fill() {
	}
	skip, unsupported := sax.ClassifyBOM(s.buf[s.pos:s.end])
	if unsupported != "" {
		return s.syntaxf(0, "unsupported encoding: %s byte order mark (only UTF-8 input is supported)", unsupported)
	}
	s.advance(skip)
	return nil
}

// step consumes one token (tag, comment, PI, text run boundary). It returns
// done=true at clean EOF.
//
//vitex:hotpath
func (s *Scanner) step() (bool, error) {
	if !s.bomChecked {
		if err := s.skipBOM(); err != nil {
			return false, err
		}
	}
	c, ok := s.peek()
	if !ok {
		if err := s.flushText(); err != nil {
			return false, err
		}
		return true, s.pendingErr()
	}
	if c != '<' {
		return false, s.scanText()
	}
	// A markup token. Pending text is flushed by every branch except
	// CDATA: in the XPath data model a CDATA section continues the
	// surrounding text node, while comments and processing instructions
	// are nodes of their own and therefore split text runs.
	start := s.off
	if s.end-s.pos >= 2 {
		// In-window dispatch on the byte after '<' — one bounds check, no
		// second peek — for the two tokens that dominate every stream.
		switch c2 := s.buf[s.pos+1]; c2 {
		case '?', '!':
			// Cold tokens: fall to the general dispatch below.
		case '/':
			if err := s.flushText(); err != nil {
				return false, err
			}
			s.advance(2)
			return false, s.scanEndTag(start)
		default:
			if err := s.flushText(); err != nil {
				return false, err
			}
			s.advance(1)
			return false, s.scanStartTag(start)
		}
	}
	s.advance(1)
	c, ok = s.peek()
	if !ok {
		return false, s.syntaxf(start, "unexpected EOF after '<'")
	}
	switch c {
	case '?':
		if err := s.flushText(); err != nil {
			return false, err
		}
		return false, s.scanPI(start)
	case '!':
		return false, s.scanBang(start)
	case '/':
		if err := s.flushText(); err != nil {
			return false, err
		}
		s.advance(1)
		return false, s.scanEndTag(start)
	default:
		if err := s.flushText(); err != nil {
			return false, err
		}
		return false, s.scanStartTag(start)
	}
}

// ---- byte-level helpers ----

// fill reads more input. Returns false when no byte is available.
func (s *Scanner) fill() bool {
	if s.err != nil {
		return false
	}
	// The window is about to move; a borrowed text run aliasing it must be
	// copied out first (fill is the only place the window moves).
	s.materializeText()
	// Read may block for as long as the producer of the input likes: hand
	// over every completed event first, so the consumer sees all that the
	// bytes read so far prove (sax.Handler). No tag is in progress at a read
	// (wholeTag reads before the parse starts), and what a text, CDATA or
	// reference token has collected lives in scanner scratch (text,
	// nameBuf), never in the batch arenas the flush recycles. A handler
	// error ends the input — every scan loop unwinds on a failed fill — and
	// Run reports it.
	if s.flushBatch() != nil {
		s.err = s.herr
		return false
	}
	if s.pos > 0 {
		// Slide the unread tail to the front to make room.
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.ltEnd = max(s.ltEnd-s.pos, 0)
		s.pos = 0
	}
	if s.end == len(s.buf) {
		// Token larger than the buffer: grow.
		nb := make([]byte, len(s.buf)*2)
		copy(nb, s.buf[:s.end])
		s.buf = nb
	}
	n, err := s.r.Read(s.buf[s.end:])
	if k := bytes.LastIndexByte(s.buf[s.end:s.end+n], '<'); k >= 0 {
		s.ltEnd = s.end + k + 1
	}
	s.end += n
	if err != nil {
		s.err = err
	}
	return n > 0
}

func (s *Scanner) pendingErr() error {
	if s.err != nil && s.err != io.EOF {
		return s.err
	}
	return nil
}

//vitex:hotpath
func (s *Scanner) peek() (byte, bool) {
	for s.pos == s.end {
		if !s.fill() {
			return 0, false
		}
	}
	return s.buf[s.pos], true
}

// hasPrefix reports whether the unread input begins with lit, consuming
// nothing. Used on cold paths (markup-declaration dispatch) only.
func (s *Scanner) hasPrefix(lit string) bool {
	for s.end-s.pos < len(lit) {
		if !s.fill() {
			return false
		}
	}
	for i := 0; i < len(lit); i++ {
		if s.buf[s.pos+i] != lit[i] {
			return false
		}
	}
	return true
}

//vitex:hotpath
func (s *Scanner) advance(n int) {
	s.pos += n
	s.off += int64(n)
}

// readByte consumes and returns the next byte.
//
//vitex:hotpath
func (s *Scanner) readByte() (byte, bool) {
	c, ok := s.peek()
	if ok {
		s.advance(1)
	}
	return c, ok
}

// skipSpace consumes XML whitespace.
//
//vitex:hotpath
func (s *Scanner) skipSpace() {
	for {
		c, ok := s.peek()
		if !ok || !isSpace(c) {
			return
		}
		s.advance(1)
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// isNameStart / isNameByte approximate the XML Name grammar. Multi-byte
// UTF-8 sequences are accepted wholesale (any byte >= 0x80), which admits
// all non-ASCII name characters; the fine-grained Unicode classes of the XML
// spec are not enforced — lexical matching downstream makes this harmless.
func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameByte(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// readNameBytes scans an XML Name and returns its bytes. When the whole name
// sits inside the buffered window — the overwhelmingly common case — the
// returned slice borrows directly from the read buffer, zero-copy: it stays
// valid until the next fill, so callers must consume it (intern lookup,
// comparison) before reading further input. Only a name cut by a refill seam
// is accumulated in the scratch buffer.
//
//vitex:hotpath
func (s *Scanner) readNameBytes() ([]byte, error) {
	c, ok := s.peek()
	if !ok {
		return nil, s.syntaxf(s.off, "unexpected EOF, expected name")
	}
	if !isNameStart(c) {
		return nil, s.errBadNameStart(s.off, c)
	}
	start := s.pos
	i := s.pos + 1
	for i < s.end && nameByteTab[s.buf[i]] {
		i++
	}
	if i < s.end {
		b := s.buf[start:i]
		s.advance(i - start)
		return b, nil
	}
	// The window ended mid-name: switch to the scratch buffer and continue
	// across refills.
	s.nameBuf = append(s.nameBuf[:0], s.buf[start:i]...)
	s.advance(i - start)
	for {
		c, ok := s.peek()
		if !ok || !nameByteTab[c] {
			break
		}
		s.nameBuf = append(s.nameBuf, c)
		s.advance(1)
	}
	return s.nameBuf, nil
}

// readName scans an XML Name, returning its interned string.
func (s *Scanner) readName() (string, error) {
	start := s.off
	b, err := s.readNameBytes()
	if err != nil {
		return "", err
	}
	e, err := s.resolveName(b, start)
	return e.name, err
}

// nameHash mixes a name's length with its first, middle and last bytes — no
// per-byte loop, so the scan loops that feed it stay pure table lookups. A
// collision only costs a slot miss (resolveNameMiss rechecks against the
// intern map, the ground truth), never correctness.
//
//vitex:hotpath
func nameHash(b []byte) uint32 {
	n := len(b)
	h := uint32(n)<<24 ^ uint32(b[0])<<16 ^ uint32(b[n-1])<<8 ^ uint32(b[n>>1])
	return h*2654435761 ^ h>>13
}

// resolveName validates and interns scanned name bytes, returning the
// name's cache entry (canonical string, prefix/local split, local-name
// symbol ID). The byte scan decides where a name ends; rune-level validation
// (the XML name tables, invalid UTF-8, the one-colon QName rule) decides
// whether it is legal — the same split encoding/xml uses, so the front-ends
// agree on every name. Degenerate single-colon names (":", "a:", ":a") are
// accepted unsplit (see sax.SplitName). Cache hits skip validation: a cached
// name was validated when first interned. The hit path
// is a direct-mapped probe on nameHash — names are a few bytes, already in
// cache, so the hash costs less than the map's hashed lookup it replaces.
//
//vitex:hotpath
func (s *Scanner) resolveName(b []byte, start int64) (symEntry, error) {
	h := nameHash(b)
	if len(s.nameSlots) == nameSlotCount {
		if sl := &s.nameSlots[h&(nameSlotCount-1)]; sl.hash == h && sl.e.name == string(b) {
			return sl.e, nil
		}
	}
	return s.resolveNameMiss(b, h, start)
}

// resolveNameMiss is the cold half of resolveName: the map lookup, the
// validation and interning of first-sighted names, and the slot install.
func (s *Scanner) resolveNameMiss(b []byte, h uint32, start int64) (symEntry, error) {
	e, ok := s.interned[string(b)]
	if !ok {
		colons := 0
		for _, c := range b {
			if c == ':' {
				colons++
			}
		}
		if colons > 1 || !isXMLName(b) {
			return symEntry{}, s.errInvalidName(start, b)
		}
		e = s.intern(b)
	}
	if s.nameSlots == nil {
		s.nameSlots = make([]nameSlot, nameSlotCount)
	}
	s.nameSlots[h&(nameSlotCount-1)] = nameSlot{hash: h, e: e}
	return e, nil
}

// expect consumes the literal lit or fails.
func (s *Scanner) expect(lit string) error {
	for i := 0; i < len(lit); i++ {
		c, ok := s.readByte()
		if !ok {
			return s.syntaxf(s.off, "unexpected EOF, expected %q", lit)
		}
		if c != lit[i] {
			return s.syntaxf(s.off-1, "expected %q, found %q", lit, c)
		}
	}
	return nil
}

// ---- token scanners ----

// scanText accumulates character data up to the next '<'. Clean stretches —
// no markup, references, line endings to normalize, or bytes needing rune
// validation — are appended in bulk (cleanText, word-at-a-time) with
// character validation fused into the scan; only the special bytes fall to
// the per-byte cases below. Entity and character references are resolved
// inline; CDATA sections are merged by the caller loop (scanBang appends to
// s.text). Literal line endings are normalized per XML 1.0 §2.11 ("\r\n" and
// lone "\r" become "\n"); character references like &#13; are exempt,
// matching encoding/xml.
//
//vitex:hotpath
func (s *Scanner) scanText() error {
	s.materializeText()
	if len(s.text) == 0 {
		s.textAt = s.off
		// Borrowed fast path: a run that is one clean stretch starting and
		// ending inside the current window is recorded as a slice of the
		// read buffer itself — no copy into the accumulation buffer. The
		// alias holds because nothing moves the window between here and the
		// flush at the next markup token (fill materializes it if a refill
		// intervenes after all, e.g. for a comment probing past the '<').
		w := s.buf[s.pos:s.end]
		if n := cleanText(w); n < len(w) && w[n] == '<' {
			s.textBorrow = w[:n:n]
			s.advance(n)
			return nil
		}
	}
	for {
		if s.pos == s.end && !s.fill() {
			return nil // EOF ends the run; step flushes and reports pending errors
		}
		if n := cleanText(s.buf[s.pos:s.end]); n > 0 {
			s.text = append(s.text, s.buf[s.pos:s.pos+n]...)
			s.advance(n)
			if s.pos == s.end {
				continue
			}
		}
		switch c := s.buf[s.pos]; contentClass[c] {
		case ccLT:
			return nil
		case ccAmp:
			r, err := s.scanReference()
			if err != nil {
				return err
			}
			s.text = append(s.text, r...)
			// Expanded reference text is the one content source the fused
			// scan does not validate; flushText runs the full pass.
			s.textNeedsCheck = true
		case ccCR:
			s.advance(1)
			if n, ok := s.peek(); ok && n == '\n' {
				s.advance(1)
			}
			s.text = append(s.text, '\n')
		case ccRB:
			if err := s.scanTextBrackets(); err != nil {
				return err
			}
		case ccHigh:
			if err := s.appendRuneTo(&s.text, s.textAt); err != nil {
				return err
			}
		default: // ccBad: a control byte the XML Char production forbids
			return s.errIllegalChar(s.textAt, rune(c))
		}
	}
}

// scanTextBrackets consumes a run of literal ']' bytes and rejects a
// directly following '>' when the run could close a CDATA section: "]]>"
// must not appear literally in character data (XML 1.0 §2.4; encoding/xml
// rejects it too). Escaped forms (&#93;&#93;&gt;) and runs split by markup
// are fine — references reset the run by construction, since scanText
// re-enters the clean scan after appending them.
//
//vitex:hotpath
func (s *Scanner) scanTextBrackets() error {
	k := 0
	for {
		c, ok := s.peek()
		if !ok || c != ']' {
			if k >= 2 && ok && c == '>' {
				return s.syntaxf(s.off, "unescaped ]]> not in CDATA section")
			}
			return nil
		}
		s.text = append(s.text, ']')
		s.advance(1)
		k++
	}
}

// appendRuneTo validates one multi-byte UTF-8 sequence — refilling so
// sequences split across a read boundary decode whole — and appends its
// bytes to dst. at is the offset character errors are reported against (the
// run start, matching the batch validateChars pass).
//
//vitex:hotpath
func (s *Scanner) appendRuneTo(dst *[]byte, at int64) error {
	for s.end-s.pos < utf8.UTFMax && s.fill() {
	}
	return s.appendRune(dst, at)
}

// appendRune is appendRuneTo without the refill, for a sequence the window
// already holds whole or ends at EOF.
//
//vitex:hotpath
func (s *Scanner) appendRune(dst *[]byte, at int64) error {
	r, size := utf8.DecodeRune(s.buf[s.pos:s.end])
	if r == utf8.RuneError && size == 1 {
		return s.syntaxf(at, "invalid UTF-8")
	}
	if !inCharacterRange(r) {
		return s.errIllegalChar(at, r)
	}
	*dst = append(*dst, s.buf[s.pos:s.pos+size]...)
	s.advance(size)
	return nil
}

// scanReference parses an entity or character reference starting at '&'.
func (s *Scanner) scanReference() (string, error) {
	start := s.off
	s.advance(1) // consume '&'
	c, ok := s.peek()
	if !ok {
		return "", s.syntaxf(start, "unexpected EOF in entity reference")
	}
	if c == '#' {
		s.advance(1)
		base := 10
		c, ok = s.peek()
		// Only lowercase 'x' marks a hex reference (XML 1.0 §4.1; "&#X"
		// is rejected, as encoding/xml rejects it).
		if ok && c == 'x' {
			base = 16
			s.advance(1)
		}
		var n rune
		digits := 0
		for {
			c, ok = s.peek()
			if !ok {
				return "", s.syntaxf(start, "unexpected EOF in character reference")
			}
			if c == ';' {
				s.advance(1)
				break
			}
			var d int
			switch {
			case c >= '0' && c <= '9':
				d = int(c - '0')
			case base == 16 && c >= 'a' && c <= 'f':
				d = int(c-'a') + 10
			case base == 16 && c >= 'A' && c <= 'F':
				d = int(c-'A') + 10
			default:
				return "", s.syntaxf(s.off, "invalid digit %q in character reference", c)
			}
			s.advance(1)
			n = n*rune(base) + rune(d)
			digits++
			if n > 0x10FFFF {
				return "", s.syntaxf(start, "character reference out of range")
			}
		}
		if digits == 0 {
			return "", s.syntaxf(start, "empty character reference")
		}
		return string(n), nil
	}
	name, err := s.readName()
	if err != nil {
		return "", err
	}
	if err := s.expect(";"); err != nil {
		return "", err
	}
	switch name {
	case "amp":
		return "&", nil
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "apos":
		return "'", nil
	case "quot":
		return "\"", nil
	}
	if repl, ok := s.entities[name]; ok {
		expanded, err := s.expandEntity(start, name, repl, 0, 0)
		if err != nil {
			return "", err
		}
		return expanded, nil
	}
	return "", s.syntaxf(start, "unknown entity &%s; (external entities are not supported)", name)
}

// expandEntity resolves an internal-subset entity's replacement text:
// nested character and general entity references expand recursively;
// markup-bearing replacement text ('<') is rejected — entities here are
// character data, not document structure (documented limitation).
func (s *Scanner) expandEntity(off int64, name, repl string, depth, budget int) (string, error) {
	if depth >= maxEntityDepth {
		return "", s.syntaxf(off, "entity &%s; nested more than %d levels", name, maxEntityDepth)
	}
	var b strings.Builder
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		switch c {
		case '<':
			return "", s.syntaxf(off, "entity &%s; contains markup, which is not supported", name)
		case '&':
			end := strings.IndexByte(repl[i:], ';')
			if end < 0 {
				return "", s.syntaxf(off, "unterminated reference inside entity &%s;", name)
			}
			ref := repl[i+1 : i+end]
			i += end
			sub, err := s.resolveInnerRef(off, name, ref, depth)
			if err != nil {
				return "", err
			}
			b.WriteString(sub)
		default:
			b.WriteByte(c)
		}
		if budget+b.Len() > maxEntityExpand {
			return "", s.syntaxf(off, "entity &%s; expands beyond %d bytes", name, maxEntityExpand)
		}
	}
	return b.String(), nil
}

func (s *Scanner) resolveInnerRef(off int64, outer, ref string, depth int) (string, error) {
	if strings.HasPrefix(ref, "#") {
		n, err := parseCharRef(ref[1:])
		if err != nil {
			return "", s.syntaxf(off, "bad character reference &%s; inside entity &%s;", ref, outer)
		}
		return string(n), nil
	}
	switch ref {
	case "amp":
		return "&", nil
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "apos":
		return "'", nil
	case "quot":
		return "\"", nil
	}
	repl, ok := s.entities[ref]
	if !ok {
		return "", s.syntaxf(off, "unknown entity &%s; inside entity &%s;", ref, outer)
	}
	return s.expandEntity(off, ref, repl, depth+1, 0)
}

// parseCharRef parses the digits of a character reference (after '#').
func parseCharRef(digits string) (rune, error) {
	base := 10
	if len(digits) > 0 && (digits[0] == 'x' || digits[0] == 'X') {
		base = 16
		digits = digits[1:]
	}
	if digits == "" {
		return 0, fmt.Errorf("empty character reference")
	}
	var n rune
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		var d int
		switch {
		case c >= '0' && c <= '9':
			d = int(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int(c-'A') + 10
		default:
			return 0, fmt.Errorf("invalid digit %q", c)
		}
		n = n*rune(base) + rune(d)
		if n > 0x10FFFF {
			return 0, fmt.Errorf("out of range")
		}
	}
	return n, nil
}

// flushText emits a pending Text event, if any. Whitespace-only text outside
// the root element is dropped; non-whitespace there is a syntax error.
// validateChars checks a character-data run (text, CDATA, attribute value —
// after entity expansion and line-ending normalization) for well-formed
// UTF-8 and the XML Char production, exactly as encoding/xml does. Comments,
// processing instructions and skipped directives are not validated — neither
// front-end looks inside them.
//
//vitex:hotpath
func (s *Scanner) validateChars(b []byte, at int64) error {
	for i := 0; i < len(b); {
		c := b[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 || c == '\t' || c == '\n' || c == '\r' {
				i++
				continue
			}
			return s.errIllegalChar(at, rune(c))
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return s.syntaxf(at, "invalid UTF-8")
		}
		if !inCharacterRange(r) {
			return s.errIllegalChar(at, r)
		}
		i += size
	}
	return nil
}

// materializeText copies a borrowed text run into the accumulation buffer.
// Called before anything can invalidate the alias: the window moving (fill),
// or more content joining the run (references, CDATA merges).
//
//vitex:hotpath
func (s *Scanner) materializeText() {
	if s.textBorrow == nil {
		return
	}
	s.text = append(s.text, s.textBorrow...)
	s.textBorrow = nil
}

//vitex:hotpath
func (s *Scanner) flushText() error {
	if b := s.textBorrow; b != nil {
		// Borrowed run: clean by construction (no expanded references, no
		// bytes needing validation), aliasing the read buffer only until the
		// copy into the arena below.
		s.textBorrow = nil
		if s.depth == 0 {
			if !isAllSpace(b) {
				return s.syntaxf(s.textAt, "character data outside root element")
			}
			return nil
		}
		if !s.keepText() {
			return s.skip(sax.Text, s.depth+1)
		}
		return s.emit(sax.Text, s.depth+1, s.arenaString(b), s.textAt)
	}
	if len(s.text) == 0 {
		return nil
	}
	if s.textNeedsCheck {
		// The run contains expanded reference text, which the fused scan
		// loops do not validate; everything else was validated as it was
		// appended.
		if err := s.validateChars(s.text, s.textAt); err != nil {
			return err
		}
		s.textNeedsCheck = false
	}
	if s.depth == 0 {
		// Character data outside the root element: only whitespace is
		// tolerated, and no event is emitted either way.
		if !isAllSpace(s.text) {
			return s.syntaxf(s.textAt, "character data outside root element")
		}
		s.text = s.text[:0]
		return nil
	}
	if !s.keepText() {
		s.text = s.text[:0]
		return s.skip(sax.Text, s.depth+1)
	}
	t := s.arenaString(s.text)
	s.text = s.text[:0]
	return s.emit(sax.Text, s.depth+1, t, s.textAt)
}

func isAllSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// wholeTag makes the read window hold the tag that starts at the cursor, up
// to the byte where the scan for its end stops: the first '>' outside
// quotes, any '<', or EOF. A tag's parse never looks past that byte (it ends
// or fails at it, or earlier), so the parse reads the window alone: nothing
// is read between a tag's first byte and its event, hence no batch is
// flushed and the window does not move, which is what lets the attributes
// live in the batch and their values in the window. A '<' in the window at
// or after the cursor bounds the scan already, so only the last tag of a
// window (ltEnd) is scanned, by fillTag.
//
//vitex:hotpath
func (s *Scanner) wholeTag() {
	if s.ltEnd <= s.pos {
		s.fillTag()
	}
}

// fillTag is wholeTag's scan: it reads until the window holds the tag's end,
// resuming where it stopped after each read, so a tag costs O(its length)
// however it arrives.
func (s *Scanner) fillTag() {
	var q byte
	i := s.pos
	for {
		for ; i < s.end; i++ {
			switch c := s.buf[i]; {
			case c == '<':
				return
			case q != 0:
				if c == q {
					q = 0
				}
			case c == '>':
				return
			case c == '"' || c == '\'':
				q = c
			}
		}
		n := i - s.pos
		if !s.fill() {
			if s.err == nil {
				// A read that returned nothing ends the input here too, so
				// the parse that follows never reads.
				s.err = io.EOF
			}
			return
		}
		i = s.pos + n
	}
}

// offAt is the input offset of buffer index i.
//
//vitex:hotpath
func (s *Scanner) offAt(i int) int64 { return s.off + int64(i-s.pos) }

// seek moves the cursor to buffer index i of the window.
//
//vitex:hotpath
func (s *Scanner) seek(i int) { s.advance(i - s.pos) }

// scanStartTag parses "<name attr=... >" with '<' already consumed. Once
// wholeTag has the tag in the window, the parse runs on local indices and
// moves the cursor once, at the end. Attributes accumulate straight into the
// batch-owned backing array, with values that view the window; only the
// values of a queued tag are copied into the batch arena. What a clean tag
// does not contain (a value to expand or validate, and every diagnostic) is
// an outlined cold helper.
//
//vitex:hotpath
func (s *Scanner) scanStartTag(start int64) error {
	if s.seenRoot && s.depth == 0 {
		return s.syntaxf(start, "multiple root elements")
	}
	s.wholeTag()
	buf, i, end := s.buf, s.pos, s.end
	if i >= end || !isNameStart(buf[i]) {
		return s.errNameStartAt(i)
	}
	nst := i
	i++
	for i < end && nameByteTab[buf[i]] {
		i++
	}
	name, err := s.resolveName(buf[nst:i], start+1)
	if err != nil {
		return err
	}
	// att0 marks where this tag's attributes start in the batch array.
	attrs := s.batchAttrs
	att0 := len(attrs)
	selfClose := false
	for {
		for i < end && isSpace(buf[i]) {
			i++
		}
		if i >= end {
			return s.errEOFInTag(start, name.name)
		}
		c := buf[i]
		if c == '>' {
			i++
			break
		}
		if c == '/' {
			if i+1 >= end || buf[i+1] != '>' {
				return s.errExpectAt(i+1, '>')
			}
			selfClose = true
			i += 2
			break
		}
		if !isNameStart(c) {
			return s.errNameStartAt(i)
		}
		ast := i
		i++
		for i < end && nameByteTab[buf[i]] {
			i++
		}
		aname, err := s.resolveName(buf[ast:i], s.offAt(ast))
		if err != nil {
			return err
		}
		for i < end && isSpace(buf[i]) {
			i++
		}
		if i >= end || buf[i] != '=' {
			return s.errExpectAt(i, '=')
		}
		i++
		for i < end && isSpace(buf[i]) {
			i++
		}
		if i >= end || (buf[i] != '"' && buf[i] != '\'') {
			return s.errQuoteAt(i)
		}
		q := buf[i]
		qc := uint8(ccQuot)
		if q == '\'' {
			qc = ccApos
		}
		i++
		var v string
		if j := bytes.IndexByte(buf[i:end], q); j >= 0 && cleanAttrValue(buf[i:i+j], qc, swarOnes*uint64(q)) == j {
			v = bufString(buf[i : i+j])
			i += j + 1
		} else if v, i, err = s.attrValue(i, q, qc); err != nil {
			return err
		}
		for k := att0; k < len(attrs); k++ {
			if attrs[k].Name == aname.name {
				return s.errDupAttr(start, aname.name, name.name)
			}
		}
		attrs = append(attrs, sax.Attr{
			Name: aname.name, Value: v,
			Prefix: aname.prefix, Local: aname.local, NameID: aname.id,
		})
	}
	s.seek(i)
	keep := s.keepTag(name.id, attrs[att0:])
	s.openElement(name, keep)
	if !keep {
		s.batchAttrs = attrs[:att0]
		if err := s.skip(sax.StartElement, s.depth); err != nil {
			return err
		}
	} else {
		var evAttrs []sax.Attr
		if len(attrs) > att0 {
			evAttrs = attrs[att0:len(attrs):len(attrs)]
			for k := range evAttrs {
				evAttrs[k].Value = s.arenaString(stringBytes(evAttrs[k].Value))
			}
		}
		s.batchAttrs = attrs
		if err := s.emitTag(sax.StartElement, name, s.depth, evAttrs, start); err != nil {
			return err
		}
	}
	if selfClose {
		// The synthetic end event of a self-closing tag carries the offset
		// just past the tag — where an explicit end tag would have begun —
		// matching encoding/xml's convention (the fuzz differential pins
		// this).
		return s.endElement(&s.stack[len(s.stack)-1], s.off)
	}
	return nil
}

// attrValue parses the rest of a quoted value that is not one clean run,
// from buffer index i just past its opening quote q (qc its byte class): it
// resolves references, normalizes line endings (XML 1.0 §2.11, matching
// encoding/xml) and validates what the clean scan stops at, writing the
// value into the batch arena. It returns the value and the index just past
// the closing quote. Character errors report the opening quote's offset.
func (s *Scanner) attrValue(i int, q, qc byte) (string, int, error) {
	at := s.offAt(i) - 1
	s.seek(i) // the cursor walks the value: scanReference reads through it
	a0 := len(s.arena)
	needsCheck := false
	for {
		if s.pos == s.end {
			return "", 0, s.syntaxf(s.off, "unexpected EOF in attribute value")
		}
		if n := cleanAttrValue(s.buf[s.pos:s.end], qc, swarOnes*uint64(q)); n > 0 {
			s.arena = append(s.arena, s.buf[s.pos:s.pos+n]...)
			s.advance(n)
			continue
		}
		switch c := s.buf[s.pos]; {
		case c == q:
			v := s.arena[a0:]
			if needsCheck {
				// Reference expansions are the only bytes the fused scan
				// did not validate.
				if err := s.validateChars(v, at); err != nil {
					return "", 0, err
				}
			}
			return bufString(v), s.pos + 1, nil
		case c == '<':
			return "", 0, s.syntaxf(s.off, "'<' not allowed in attribute value")
		case c == '&':
			r, err := s.scanReference()
			if err != nil {
				return "", 0, err
			}
			s.arena = append(s.arena, r...)
			needsCheck = true
		case c == '\r':
			s.advance(1)
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.advance(1)
			}
			s.arena = append(s.arena, '\n')
		case c >= utf8.RuneSelf:
			if err := s.appendRune(&s.arena, at); err != nil {
				return "", 0, err
			}
		default: // a control byte the XML Char production forbids
			return "", 0, s.errIllegalChar(at, rune(c))
		}
	}
}

// scanEndTag parses "</name>" with "</" already consumed. The fast path
// compares the name bytes directly against the open element on the stack: a
// match reuses that element's interned entry, skipping both the rune-level
// name validation (the bytes were validated when the start tag interned
// them) and the intern-cache lookup.
//
//vitex:hotpath
func (s *Scanner) scanEndTag(start int64) error {
	if s.depth > 0 {
		top := &s.stack[len(s.stack)-1]
		if n := len(top.name); s.end-s.pos > n &&
			s.buf[s.pos+n] == '>' && string(s.buf[s.pos:s.pos+n]) == top.name {
			s.pos += n + 1
			s.off += int64(n + 1)
			return s.endElement(top, start)
		}
	}
	// Whitespace before the '>', a window seam or a mismatch: parse the
	// whole tag in the window.
	s.wholeTag()
	buf, i, end := s.buf, s.pos, s.end
	if i >= end || !isNameStart(buf[i]) {
		return s.errNameStartAt(i)
	}
	nst := i
	i++
	for i < end && nameByteTab[buf[i]] {
		i++
	}
	b := buf[nst:i]
	open := s.depth > 0 && string(b) == s.stack[len(s.stack)-1].name
	var name symEntry
	if !open {
		// Unmatched or mismatched: resolve the name fully, so that the
		// diagnostics (invalid name, unmatched, mismatched, in that order)
		// carry the canonical strings.
		var err error
		if name, err = s.resolveName(b, start); err != nil {
			return err
		}
	}
	for i < end && isSpace(buf[i]) {
		i++
	}
	if i >= end || buf[i] != '>' {
		return s.errExpectAt(i, '>')
	}
	s.seek(i + 1)
	if open {
		return s.endElement(&s.stack[len(s.stack)-1], start)
	}
	if s.depth == 0 {
		return s.errUnmatchedEnd(start, name.name)
	}
	return s.errMismatchedEnd(start, name.name, s.stack[len(s.stack)-1].name)
}

//vitex:hotpath
func (s *Scanner) closeElement() {
	if s.rootAt == s.depth {
		s.rootAt = 0
	}
	s.stack = s.stack[:len(s.stack)-1]
	s.depth--
	if s.depth == 0 {
		s.seenRoot = true
	}
}

// scanPI skips "<?target ...?>" (XML declarations and processing
// instructions), with encoding/xml's verdicts: the target must be a valid
// XML name (multi-colon targets are allowed — PI targets are plain names,
// not QNames), instruction content is not character-validated, and an "<?xml
// ...?>" declaration whose encoding pseudo-attribute names anything but
// UTF-8 is rejected (only UTF-8 input is supported, as with BOMs).
func (s *Scanner) scanPI(start int64) error {
	s.advance(1) // consume '?'
	target, err := s.readNameBytes()
	if err != nil {
		return s.syntaxf(start, "expected target name after '<?'")
	}
	if !isXMLName(target) {
		return s.syntaxf(start, "invalid XML name %q", target)
	}
	isDecl := string(target) == "xml"
	if !isDecl {
		// Ordinary instruction: content is neither emitted nor validated,
		// so skipping is a pure IndexByte hop between '?' bytes.
		for {
			if s.pos == s.end && !s.fill() {
				return s.syntaxf(start, "unexpected EOF in processing instruction")
			}
			i := bytes.IndexByte(s.buf[s.pos:s.end], '?')
			if i < 0 {
				s.advance(s.end - s.pos)
				continue
			}
			s.advance(i + 1)
			c, ok := s.peek()
			if !ok {
				return s.syntaxf(start, "unexpected EOF in processing instruction")
			}
			if c == '>' {
				s.advance(1)
				return nil
			}
		}
	}
	var inst []byte
	prev := byte(0)
	for {
		c, ok := s.readByte()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in processing instruction")
		}
		if prev == '?' && c == '>' {
			break
		}
		if isDecl {
			inst = append(inst, c)
		}
		prev = c
	}
	if isDecl {
		if n := len(inst); n > 0 {
			inst = inst[:n-1] // trailing '?' of the terminator
		}
		if v := pseudoAttr(string(inst), "version"); v != "" && v != "1.0" {
			return s.syntaxf(start, "unsupported version %q; only version 1.0 is supported", v)
		}
		if enc := pseudoAttr(string(inst), "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return s.syntaxf(start, "unsupported encoding: %q declared in XML declaration (only UTF-8 input is supported)", enc)
		}
	}
	return nil
}

// pseudoAttr extracts a pseudo-attribute value from an XML declaration's
// content, with the same lenient scan encoding/xml applies: "param="
// occurrences not followed by a quote are skipped, and the first quoted one
// wins (the fuzz differential pins this — giving up at the first unquoted
// occurrence would accept declarations encoding/xml rejects).
func pseudoAttr(inst, param string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(inst) {
		sub := inst[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	end := strings.IndexByte(inst[i:], sep)
	if end < 0 {
		return ""
	}
	return inst[i : i+end]
}

// scanBang dispatches "<!--", "<![CDATA[" and "<!DOCTYPE" with "<!" partially
// consumed (the '!' is still pending). Comments, DOCTYPE and skipped
// directives flush pending text; CDATA extends it. Markup declarations the
// scanner does not interpret are skipped with encoding/xml's lax algorithm
// (skipDirective) so both front-ends accept the same documents.
func (s *Scanner) scanBang(start int64) error {
	s.advance(1) // consume '!'
	c, ok := s.peek()
	if !ok {
		return s.syntaxf(start, "unexpected EOF after '<!'")
	}
	switch {
	case c == '-':
		if err := s.flushText(); err != nil {
			return err
		}
		return s.scanComment(start)
	case c == '[':
		return s.scanCDATA(start)
	case s.hasPrefix("DOCTYPE"):
		if err := s.flushText(); err != nil {
			return err
		}
		return s.scanDoctype(start)
	default:
		if err := s.flushText(); err != nil {
			return err
		}
		// Mirror encoding/xml: the first byte after "<!" is consumed
		// before the quote/nesting rules engage.
		s.advance(1)
		return s.skipDirective(start)
	}
}

// skipDirective consumes a "<!...>" markup declaration the scanner does not
// interpret, byte-for-byte compatible with encoding/xml's directive
// scanning: quoted literals hide markup characters, '<'...'>' pairs nest,
// and embedded comments are skipped wholly (without the "--" restriction of
// real comments). Nothing is emitted; directives only split text runs.
func (s *Scanner) skipDirective(start int64) error {
	var quote byte
	depth := 0
	for {
		c, ok := s.readByte()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in markup declaration")
		}
	reprocess:
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '>':
			if depth == 0 {
				return nil
			}
			depth--
		case c == '<' && depth > 0:
			depth++
		case c == '<':
			// A depth-0 '<' may open an embedded comment. On a partial
			// match the mismatching byte is reprocessed with the '<'
			// already counted as nesting — exactly encoding/xml's loop.
			const lit = "!--"
			for i := 0; i < len(lit); i++ {
				nc, ok := s.readByte()
				if !ok {
					return s.syntaxf(start, "unexpected EOF in markup declaration")
				}
				if nc != lit[i] {
					depth++
					c = nc
					goto reprocess
				}
			}
			var p1, p2 byte
			for {
				nc, ok := s.readByte()
				if !ok {
					return s.syntaxf(start, "unexpected EOF in markup declaration")
				}
				if p1 == '-' && p2 == '-' && nc == '>' {
					break
				}
				p1, p2 = p2, nc
			}
		}
	}
}

// scanComment skips "<!-- ... -->", enforcing the no-"--" rule loosely
// (only the terminator is required). Content is not character-validated
// (neither front-end looks inside comments), so the skip is a pure
// bytes.IndexByte hop between '-' bytes.
func (s *Scanner) scanComment(start int64) error {
	if err := s.expect("--"); err != nil {
		return err
	}
	for {
		if s.pos == s.end && !s.fill() {
			return s.syntaxf(start, "unexpected EOF in comment")
		}
		i := bytes.IndexByte(s.buf[s.pos:s.end], '-')
		if i < 0 {
			s.advance(s.end - s.pos)
			continue
		}
		s.advance(i + 1)
		c, ok := s.peek()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in comment")
		}
		if c != '-' {
			continue // lone '-': ordinary content
		}
		s.advance(1)
		c, ok = s.peek()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in comment")
		}
		if c == '>' {
			s.advance(1)
			return nil
		}
		return s.syntaxf(s.off, "'--' not allowed inside comment")
	}
}

// scanCDATA appends "<![CDATA[ ... ]]>" content to the pending text run.
// Clean stretches go through the bulk scan (cleanCDATA) with character
// validation fused in; ']' runs are resolved by direct lookahead — a run of
// two or more followed by '>' terminates the section with the surplus
// brackets as content, anything else is ordinary content.
func (s *Scanner) scanCDATA(start int64) error {
	if err := s.expect("[CDATA["); err != nil {
		return err
	}
	// A CDATA section outside the root element joins the pending text run
	// like any character data: flushText rejects it if non-whitespace,
	// tolerates it otherwise — the same verdicts encoding/xml produces.
	// A borrowed run the section continues is copied out first (the appends
	// below write into the accumulation buffer).
	s.materializeText()
	if len(s.text) == 0 {
		s.textAt = start
	}
	for {
		if s.pos == s.end && !s.fill() {
			return s.syntaxf(start, "unexpected EOF in CDATA section")
		}
		if n := cleanCDATA(s.buf[s.pos:s.end]); n > 0 {
			s.text = append(s.text, s.buf[s.pos:s.pos+n]...)
			s.advance(n)
			if s.pos == s.end {
				continue
			}
		}
		switch c := s.buf[s.pos]; contentClass[c] {
		case ccRB:
			k := 0
			for {
				c2, ok := s.peek()
				if !ok {
					return s.syntaxf(start, "unexpected EOF in CDATA section")
				}
				if c2 == ']' {
					s.advance(1)
					k++
					continue
				}
				if c2 == '>' && k >= 2 {
					for ; k > 2; k-- {
						s.text = append(s.text, ']')
					}
					s.advance(1)
					return nil
				}
				for ; k > 0; k-- {
					s.text = append(s.text, ']')
				}
				break
			}
		case ccCR:
			// Line endings normalize here too (XML 1.0 §2.11).
			s.advance(1)
			if n, ok := s.peek(); ok && n == '\n' {
				s.advance(1)
			}
			s.text = append(s.text, '\n')
		case ccHigh:
			if err := s.appendRuneTo(&s.text, s.textAt); err != nil {
				return err
			}
		default: // ccBad: a control byte the XML Char production forbids
			return s.errIllegalChar(s.textAt, rune(c))
		}
	}
}

// scanDoctype processes "<!DOCTYPE ... >". The external identifier is
// skipped; inside a bracketed internal subset, <!ENTITY name "value">
// declarations are collected for reference expansion while everything else
// (element/attlist/notation declarations, parameter entities, PIs,
// comments) is skipped. Quoted strings are respected so '>' inside literals
// does not terminate early.
func (s *Scanner) scanDoctype(start int64) error {
	if err := s.expect("DOCTYPE"); err != nil {
		return err
	}
	bracket := 0
	var quote byte
	for {
		c, ok := s.readByte()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in DOCTYPE")
		}
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			quote = c
		case '[':
			bracket++
		case ']':
			bracket--
		case '<':
			if bracket > 0 {
				if err := s.scanSubsetDecl(start); err != nil {
					return err
				}
			}
		case '>':
			if bracket <= 0 {
				return nil
			}
		}
	}
}

// scanSubsetDecl handles one declaration inside the internal subset, with
// the leading '<' consumed. Only <!ENTITY name "value"> is interpreted.
func (s *Scanner) scanSubsetDecl(start int64) error {
	c, ok := s.peek()
	if !ok {
		return s.syntaxf(start, "unexpected EOF in DOCTYPE internal subset")
	}
	if c != '!' {
		// PI or junk: let the caller's quote/bracket tracking resume.
		return nil
	}
	s.advance(1)
	// Read the declaration keyword (letters only).
	var kw strings.Builder
	for {
		c, ok = s.peek()
		if !ok || c < 'A' || c > 'Z' {
			break
		}
		kw.WriteByte(c)
		s.advance(1)
	}
	if kw.String() != "ENTITY" {
		// Other declarations (ELEMENT, ATTLIST, NOTATION) or comments:
		// skip to the closing '>' respecting quotes. Comments ("--")
		// are tolerated loosely here.
		return s.skipDeclTail(start)
	}
	s.skipSpace()
	c, ok = s.peek()
	if !ok {
		return s.syntaxf(start, "unexpected EOF in entity declaration")
	}
	if c == '%' {
		// Parameter entity: not supported, skip the declaration.
		return s.skipDeclTail(start)
	}
	name, err := s.readName()
	if err != nil {
		return err
	}
	s.skipSpace()
	c, ok = s.peek()
	if !ok {
		return s.syntaxf(start, "unexpected EOF in entity declaration")
	}
	if c != '\'' && c != '"' {
		// SYSTEM/PUBLIC external entity: unsupported, skipped; a later
		// reference to it reports "unknown entity".
		return s.skipDeclTail(start)
	}
	quote := c
	s.advance(1)
	var val strings.Builder
	for {
		c, ok = s.readByte()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in entity value")
		}
		if c == quote {
			break
		}
		val.WriteByte(c)
	}
	if s.entities == nil {
		s.entities = make(map[string]string)
	}
	// Per XML, the first declaration of an entity binds.
	if _, exists := s.entities[name]; !exists {
		s.entities[name] = val.String()
	}
	return s.skipDeclTail(start)
}

// skipDeclTail consumes up to and including the '>' ending a subset
// declaration, respecting quoted literals.
func (s *Scanner) skipDeclTail(start int64) error {
	var quote byte
	for {
		c, ok := s.readByte()
		if !ok {
			return s.syntaxf(start, "unexpected EOF in DOCTYPE declaration")
		}
		if quote != 0 {
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			quote = c
		case '>':
			return nil
		}
	}
}

// emit queues one event that carries no name (document boundaries, text).
// Events are filled in place through a pointer into the batch array: a
// sax.Event is over a hundred bytes, and building it as a literal then
// storing it costs a bulk copy per event — the dominant cost of markup-dense
// scans before per-field stores. Every field is written because the slot
// carries a previous batch's values.
//
//vitex:hotpath
func (s *Scanner) emit(k sax.Kind, depth int, text string, off int64) error {
	ev := s.batchSlot()
	ev.Kind, ev.Name, ev.Prefix, ev.Local, ev.NameID = k, "", "", "", sax.SymNone
	ev.Depth, ev.Text, ev.Offset = depth, text, off
	ev.Attrs = nil
	s.stamp(ev)
	return s.batchQueued()
}

// emitTag queues a start/end-element event carrying the name's QName split
// and local-name symbol ID. attrs must already live in the batch's backing
// array, as scanStartTag builds them.
//
//vitex:hotpath
func (s *Scanner) emitTag(k sax.Kind, name symEntry, depth int, attrs []sax.Attr, off int64) error {
	ev := s.batchSlot()
	ev.Kind, ev.Name, ev.Prefix, ev.Local, ev.NameID = k, name.name, name.prefix, name.local, name.id
	ev.Depth, ev.Text, ev.Offset = depth, "", off
	ev.Attrs = attrs
	s.stamp(ev)
	return s.batchQueued()
}
