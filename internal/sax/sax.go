// Package sax defines the streaming event model that connects the XML
// front-end (internal/xmlscan) to the query engines (internal/twigm,
// internal/naive). It mirrors the "SAX parser" module of the ViteX
// architecture (ICDE 2005, figure 2): the parser turns an XML byte stream
// into a sequence of events, and downstream machines change state per event.
// The encoding/xml reference producer the scanner is tested against lives in
// internal/sax/saxtest.
//
// Events carry the element depth explicitly because the TwigM machine's axis
// checks are pure level arithmetic: the root element has depth 1, its
// children depth 2, and so on. Text events carry the depth of the text node
// itself (parent depth + 1), matching the XPath data model in which text
// nodes are children of their containing element.
//
// A stream may omit events; the ordinal is the scan's. A producer that
// projects the document (xmlscan.Scanner under a Projection) queues only the
// events its consumer can observe, and numbers every event it does queue with
// its 1-based position in the full scan (Event.Ordinal), so clocks indexed by
// event — a result's ConfirmedAt and DeliveredAt — read the same whatever was
// omitted. Omission never breaks the stream's shape: StartDocument and
// EndDocument are always delivered, and an element's end tag is delivered
// exactly when its start tag was.
//
// There is one delivery contract, Handler.HandleBatch, and one lifetime rule:
// element and attribute names (Name, Prefix, Local) are interned and stay
// valid for the producer's lifetime; everything else reachable from a batch —
// the slice itself, Event.Text, Attr.Value, the Event.Attrs backing array —
// is valid only until HandleBatch returns. A consumer that retains content
// clones it before returning.
package sax

import "fmt"

// Kind discriminates the event variants a Handler receives.
type Kind uint8

// Event kinds, in the order a well-formed document produces them.
const (
	// StartDocument is delivered once before any other event.
	StartDocument Kind = iota
	// StartElement is delivered for each opening (or self-closing) tag.
	StartElement
	// EndElement is delivered for each closing tag (self-closing tags
	// produce an immediate EndElement after their StartElement).
	EndElement
	// Text is delivered for each maximal run of character data between
	// tags. Adjacent character data, entity references and CDATA sections
	// are coalesced into a single Text event, so one Text event per
	// XPath text node.
	Text
	// EndDocument is delivered once after the root element closes.
	EndDocument
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case StartDocument:
		return "StartDocument"
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	case EndDocument:
		return "EndDocument"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of a start-element event. Values have all
// entity references resolved.
type Attr struct {
	// Name is the full lexical QName as written in the document
	// (serialization uses it verbatim).
	Name string
	// Value is transient: valid only until the HandleBatch call that
	// delivered the owning event returns.
	Value string
	// Prefix and Local are the namespace prefix (empty when none) and the
	// local part of Name. A producer always fills both; consumers read them
	// and never split Name.
	Prefix string
	Local  string
	// NameID is the Symbols ID of the LOCAL name when the producer interns
	// against a table (SymNone when it does not, SymUnknown when the name
	// is not in the table). Namespace-declaration attributes (xmlns,
	// xmlns:p) carry SymUnknown under a table: they are namespace
	// machinery, not query-matchable data. See Event.NameID.
	NameID int32
}

// IsNamespaceDecl reports whether the attribute is a namespace declaration
// (xmlns="..." or xmlns:p="..."). Such attributes are preserved in Attrs so
// fragments serialize faithfully, but they never match attribute name tests.
//
//vitex:hotpath
func (a *Attr) IsNamespaceDecl() bool { return IsNamespaceDecl(a.Name) }

// IsNamespaceDecl reports whether a lexical attribute name declares a
// namespace.
//
//vitex:hotpath
func IsNamespaceDecl(name string) bool {
	return name == "xmlns" || (len(name) > 6 && name[:6] == "xmlns:")
}

// SplitName splits a lexical QName into its prefix and local part at the
// first colon. Names without a colon have an empty prefix. Degenerate names
// where either part would be empty (":", ":a", "a:") are not QNames; they
// stay unsplit — the whole name is the local part, matching encoding/xml's
// treatment (the cross-parser fuzz differential pins this).
//
//vitex:hotpath
func SplitName(name string) (prefix, local string) {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			if i == 0 || i == len(name)-1 {
				return "", name
			}
			return name[:i], name[i+1:]
		}
	}
	return "", name
}

// ClassifyBOM inspects the first bytes of a document for a byte-order mark.
// It returns the number of leading bytes to skip (3 for the UTF-8 BOM, 0
// otherwise) and, for the unsupported UTF-16/32 encodings, the encoding name
// to report. Both front-ends share this table so they can never diverge on
// BOM handling. UTF-32LE (FF FE 00 00) is checked before UTF-16LE (FF FE):
// the 4-byte pattern can only be UTF-32 — a NUL character is not valid XML.
func ClassifyBOM(head []byte) (skip int, unsupported string) {
	switch {
	case len(head) >= 3 && head[0] == 0xEF && head[1] == 0xBB && head[2] == 0xBF:
		return 3, ""
	case len(head) >= 4 && head[0] == 0x00 && head[1] == 0x00 && head[2] == 0xFE && head[3] == 0xFF:
		return 0, "UTF-32"
	case len(head) >= 4 && head[0] == 0xFF && head[1] == 0xFE && head[2] == 0x00 && head[3] == 0x00:
		return 0, "UTF-32"
	case len(head) >= 2 && (head[0] == 0xFE && head[1] == 0xFF || head[0] == 0xFF && head[1] == 0xFE):
		return 0, "UTF-16"
	}
	return 0, ""
}

// Event is one unit of the stream. Producers recycle the memory behind
// events between Handler calls: Text, Attrs and every Attr.Value are valid
// only until HandleBatch returns (see Handler); Name, Prefix and Local are
// interned and stable.
type Event struct {
	Kind Kind
	// Name is the element name for StartElement/EndElement: the full
	// lexical QName, prefix included, exactly as written (fragments
	// serialize it verbatim).
	Name string
	// Prefix and Local split Name at its namespace colon (Prefix is empty
	// for unprefixed names). Name tests match on the local name; a
	// prefixed test additionally requires the prefix. A producer always
	// fills both for StartElement/EndElement; consumers read them and
	// never split Name. The encoding/xml reference producer
	// (saxtest.StdDriver) reconstructs the lexical prefix from the in-scope
	// namespace declarations, so it agrees with the scanner.
	Prefix string
	Local  string
	// NameID is the Symbols ID of the LOCAL name for
	// StartElement/EndElement when the producer was constructed with a
	// Symbols table: a positive ID for interned names, SymUnknown for names
	// absent from the table, SymNone (the zero value) when the producer
	// does not intern at all. Consumers compiled against the same table
	// dispatch on it directly, and refuse a start tag carrying SymNone
	// (twigm.ErrNoNameID).
	NameID int32
	// Depth is the element depth for StartElement/EndElement (root = 1)
	// and the text-node depth (parent depth + 1) for Text.
	Depth int
	// Text is the character data for Text events. Transient.
	Text string
	// Attrs holds the attributes of a StartElement event, in document
	// order. Nil for other kinds. Transient, values included.
	Attrs []Attr
	// Offset is the byte offset in the input at which the token that
	// produced this event begins. Diagnostic only.
	Offset int64
	// Ordinal is the event's 1-based position in the scan of its document,
	// counting every event the producer scanned, delivered or not: a stream
	// may omit events, and the ordinal is the scan's. Zero when the producer
	// does not number its events; such a producer omits none, and a consumer
	// counts them itself.
	Ordinal int64
}

// Handler consumes a stream of events, delivered in document order in
// batches of one or more: producers amortize the interface dispatch over an
// array of events and recycle the memory behind it afterwards. A producer
// that omits events may also hand over an empty batch while it scans what it
// omits, so that the handler can stop the scan there (xmlscan.Scanner under
// a Projection). Every string
// and slice reachable from evs — the slice itself, Text, Attr.Value, the
// Attrs backing arrays — is valid ONLY until HandleBatch returns; element and
// attribute names are interned and stay valid for the producer's lifetime. A
// handler that retains content must clone it before returning.
//
// A producer never blocks on its input while it holds completed, undelivered
// events: a consumer sees everything the bytes read so far prove before the
// producer waits for more (the paper's incremental-delivery requirement).
//
// Returning a non-nil error aborts the parse; the error is propagated to the
// driver's caller, and events later in the slice are the handler's to skip.
type Handler interface {
	HandleBatch(evs []Event) error
}

// PerEvent adapts a per-event function to Handler: the consumers at the
// edge of the pipeline (DOM builder, test sinks, examples) that look at one
// event at a time. The lifetime rule is unchanged — the function clones
// whatever it keeps past its return.
type PerEvent func(ev *Event) error

// HandleBatch implements Handler.
func (f PerEvent) HandleBatch(evs []Event) error {
	for i := range evs {
		if err := f(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Driver is anything that can push a full document's events into a Handler:
// the scanner, and in tests the encoding/xml reference producer.
type Driver interface {
	Run(h Handler) error
}

// Attr lookup helper: Get returns the value of the named attribute and
// whether it was present.
//
//vitex:hotpath
func GetAttr(attrs []Attr, name string) (string, bool) {
	for i := range attrs {
		if attrs[i].Name == name {
			return attrs[i].Value, true
		}
	}
	return "", false
}
