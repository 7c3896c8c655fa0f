package saxtest

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"repro/internal/sax"
)

// StdDriver adapts encoding/xml's token stream to the sax event model. It is
// the reference front-end that internal/xmlscan is held to: the scanner's
// fuzz target, the engine's front-end differential and the DOM oracles run
// on it, so a scanner bug cannot hide in the oracle's own parse. Benchmarks
// compare the two front-ends' throughput.
//
// encoding/xml resolves namespace prefixes to URIs and reports names as
// (URI, local). The sax model carries the lexical QName — name tests match
// local names, and prefixed tests match the prefix as written — so the
// driver tracks the in-scope xmlns declarations itself and maps each URI
// back to the innermost prefix bound to it, or to xml for the namespace that
// prefix is bound to by definition. A prefix bound to the empty URI
// (xmlns:q="", which encoding/xml accepts) is told from no prefix: for
// elements through a DefaultSpace sentinel, for attributes by reading the
// start tag back raw. Documents that bind two prefixes to one URI in the
// same scope reconstruct to the innermost binding (a documented
// approximation; see README "XML conformance").
type StdDriver struct {
	r        io.Reader
	syms     *sax.Symbols
	interned map[string]int32
	qnames   map[qnameKey]qname

	// In-scope namespace bindings, innermost last, plus the number of
	// bindings each open element declared (for popping at its end tag).
	bindings   []nsBinding
	declCounts []int
}

type nsBinding struct{ prefix, uri string }

type qnameKey struct{ prefix, local string }

// qname is a reconstructed lexical name: the full QName, its split, and the
// local name's symbol ID.
type qname struct {
	name   string
	prefix string
	local  string
	id     int32
}

// NewStdDriver returns a Driver backed by encoding/xml that stamps no name
// IDs (sax.SymNone): for comparing event streams, not for driving a machine.
func NewStdDriver(r io.Reader) *StdDriver { return &StdDriver{r: r} }

// NewStdDriverWith returns a Driver backed by encoding/xml that resolves
// element and attribute local names against syms, so events carry the same
// NameIDs the scanner would produce and an engine compiled against syms
// routes them.
func NewStdDriverWith(r io.Reader, syms *sax.Symbols) *StdDriver {
	return &StdDriver{r: r, syms: syms, interned: make(map[string]int32)}
}

// nameID resolves a local name through the per-driver cache.
func (d *StdDriver) nameID(local string) int32 {
	if d.syms == nil {
		return sax.SymNone
	}
	if id, ok := d.interned[local]; ok {
		return id
	}
	id := d.syms.ID(local)
	d.interned[local] = id
	return id
}

// xmlNamespace is the namespace the prefix xml is bound to by definition
// (Namespaces in XML 1.0 §3): encoding/xml reports xml:lang under it with no
// declaration in sight.
const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// noNamespace is the decoder's DefaultSpace: the Space encoding/xml gives an
// unprefixed element outside every default-namespace declaration. Without
// it that Space is "", which is also what an element gets whose prefix is
// bound to the empty URI (xmlns:q=""), and the two would read alike.
const noNamespace = "\x00no namespace"

// resolve reconstructs the lexical QName of an encoding/xml name. For
// attributes the default namespace never applies, so only prefixed bindings
// are consulted, and an empty Space is an unprefixed attribute (Run reads
// the prefix back from the input when one in scope is bound to the empty
// URI). The xml prefix is bound outside every declaration.
func (d *StdDriver) resolve(n xml.Name, attr bool) qname {
	prefix := ""
	if n.Space != noNamespace && (n.Space != "" || !attr) {
		prefix = n.Space // undeclared prefixes pass through verbatim
		if n.Space == xmlNamespace {
			prefix = "xml"
		}
		for i := len(d.bindings) - 1; i >= 0; i-- {
			b := d.bindings[i]
			if b.uri != n.Space || (attr && b.prefix == "") {
				continue
			}
			prefix = b.prefix
			break
		}
	}
	return d.makeName(prefix, n.Local)
}

// makeName builds (and caches) the joined lexical name for a prefix/local
// pair together with its local-name symbol ID.
func (d *StdDriver) makeName(prefix, local string) qname {
	key := qnameKey{prefix, local}
	if q, ok := d.qnames[key]; ok {
		return q
	}
	q := qname{name: local, prefix: prefix, local: local}
	if prefix != "" {
		q.name = prefix + ":" + local
	}
	if sax.IsNamespaceDecl(q.name) {
		q.id = sax.SymUnknown
		if d.syms == nil {
			q.id = sax.SymNone
		}
	} else {
		q.id = d.nameID(local)
	}
	if d.qnames == nil {
		d.qnames = make(map[qnameKey]qname)
	}
	d.qnames[key] = q
	return q
}

// emptyBound reports whether an in-scope prefix is bound to the empty URI
// (xmlns:q=""): encoding/xml then gives an attribute q:x the empty Space of
// an unprefixed one.
func (d *StdDriver) emptyBound() bool {
	for _, b := range d.bindings {
		if b.prefix != "" && b.uri == "" {
			return true
		}
	}
	return false
}

// rawTee keeps the bytes the decoder has read from input offset base on, so
// that a start tag can be read again for its lexical attribute prefixes.
type rawTee struct {
	r    io.Reader
	buf  []byte
	base int64
}

func (t *rawTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.buf = append(t.buf, p[:n]...)
	return n, err
}

// from drops the bytes before input offset off.
func (t *rawTee) from(off int64) {
	t.buf = t.buf[off-t.base:]
	t.base = off
}

// rawAttrs reads back the attributes of the start tag that begins the kept
// bytes and ends at input offset end, with their names as written.
func (t *rawTee) rawAttrs(end int64) ([]xml.Attr, error) {
	tok, err := xml.NewDecoder(bytes.NewReader(t.buf[:end-t.base])).RawToken()
	start, ok := tok.(xml.StartElement)
	if err != nil || !ok {
		return nil, fmt.Errorf("sax: reading back a start tag: token %v, error %v", tok, err)
	}
	return start.Attr, nil
}

// skipBOM consumes a leading byte-order mark: the UTF-8 BOM is skipped (its
// length is returned so event offsets keep counting raw input bytes, aligned
// with the scanner), and UTF-16/32 BOMs are rejected with a clear
// unsupported-encoding error instead of a tag-soup syntax error.
func skipBOM(r io.Reader) (io.Reader, int64, error) {
	var head [4]byte
	n, err := io.ReadFull(r, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, 0, err
	}
	skip, unsupported := sax.ClassifyBOM(head[:n])
	if unsupported != "" {
		return nil, 0, fmt.Errorf("sax: unsupported encoding: %s byte order mark (only UTF-8 input is supported)", unsupported)
	}
	return io.MultiReader(bytes.NewReader(head[skip:n]), r), int64(skip), nil
}

// Run implements sax.Driver. Adjacent CharData tokens (encoding/xml splits
// around CDATA boundaries and entity expansions in some cases) are coalesced
// so that, like xmlscan, one Text event corresponds to one XPath text node.
// Events are delivered in batches of one, the moment their token is decoded,
// so nothing is ever held back across a read of the input.
func (d *StdDriver) Run(h sax.Handler) error {
	r, base, err := skipBOM(d.r)
	if err != nil {
		return err
	}
	tee := &rawTee{r: r}
	dec := xml.NewDecoder(tee)
	// Match xmlscan: no external entities; strictness left at default.
	dec.Entity = map[string]string{}
	dec.DefaultSpace = noNamespace

	depth := 0
	seenRoot := false
	var text strings.Builder
	var textOff int64
	batch := make([]sax.Event, 1)

	emit := func(e sax.Event) error {
		batch[0] = e
		return h.HandleBatch(batch)
	}
	flushText := func() error {
		if text.Len() == 0 {
			return nil
		}
		t := text.String()
		text.Reset()
		if depth == 0 {
			if strings.TrimLeft(t, " \t\r\n") != "" {
				return fmt.Errorf("sax: character data outside root element at byte %d", textOff)
			}
			return nil
		}
		return emit(sax.Event{Kind: sax.Text, Depth: depth + 1, Text: t, Offset: textOff})
	}

	if err := emit(sax.Event{Kind: sax.StartDocument}); err != nil {
		return err
	}
	for {
		tee.from(dec.InputOffset())
		off := base + dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := flushText(); err != nil {
				return err
			}
			if seenRoot && depth == 0 {
				return fmt.Errorf("sax: multiple root elements at byte %d", off)
			}
			depth++
			// Register this element's xmlns declarations before
			// resolving any name: they are in scope for the element
			// itself.
			decls := 0
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" {
					d.bindings = append(d.bindings, nsBinding{prefix: a.Name.Local, uri: a.Value})
					decls++
				} else if a.Name.Space == "" && a.Name.Local == "xmlns" {
					d.bindings = append(d.bindings, nsBinding{prefix: "", uri: a.Value})
					decls++
				}
			}
			d.declCounts = append(d.declCounts, decls)
			var raw []xml.Attr
			if d.emptyBound() {
				if raw, err = tee.rawAttrs(dec.InputOffset()); err != nil {
					return err
				}
			}
			attrs := make([]sax.Attr, 0, len(t.Attr))
			for i, a := range t.Attr {
				var an qname
				switch {
				case a.Name.Space == "xmlns":
					an = d.makeName("xmlns", a.Name.Local)
				case a.Name.Space == "" && a.Name.Local == "xmlns":
					an = d.makeName("", "xmlns")
				case a.Name.Space == "" && raw != nil:
					an = d.makeName(raw[i].Name.Space, a.Name.Local)
				default:
					an = d.resolve(a.Name, true)
				}
				attrs = append(attrs, sax.Attr{
					Name: an.name, Value: a.Value,
					Prefix: an.prefix, Local: an.local, NameID: an.id,
				})
			}
			if len(attrs) == 0 {
				attrs = nil
			}
			name := d.resolve(t.Name, false)
			if err := emit(sax.Event{
				Kind: sax.StartElement, Name: name.name, Prefix: name.prefix, Local: name.local,
				NameID: name.id, Depth: depth, Attrs: attrs, Offset: off,
			}); err != nil {
				return err
			}
		case xml.EndElement:
			if err := flushText(); err != nil {
				return err
			}
			// Resolve before popping: the element's own declarations
			// are in scope for its end tag.
			name := d.resolve(t.Name, false)
			if err := emit(sax.Event{
				Kind: sax.EndElement, Name: name.name, Prefix: name.prefix, Local: name.local,
				NameID: name.id, Depth: depth, Offset: off,
			}); err != nil {
				return err
			}
			if n := len(d.declCounts); n > 0 {
				d.bindings = d.bindings[:len(d.bindings)-d.declCounts[n-1]]
				d.declCounts = d.declCounts[:n-1]
			}
			depth--
			if depth == 0 {
				seenRoot = true
			}
		case xml.CharData:
			if text.Len() == 0 {
				textOff = off
			}
			text.Write(t)
		case xml.Comment, xml.ProcInst, xml.Directive:
			// xmlscan flushes text before every markup token, so
			// comments and PIs split text runs there. Mirror that here.
			if err := flushText(); err != nil {
				return err
			}
		}
	}
	if depth != 0 {
		return fmt.Errorf("sax: unexpected EOF with %d element(s) open", depth)
	}
	if err := flushText(); err != nil {
		return err
	}
	if !seenRoot {
		return fmt.Errorf("sax: document has no root element")
	}
	return emit(sax.Event{Kind: sax.EndDocument, Offset: base + dec.InputOffset()})
}
