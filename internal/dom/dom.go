// Package dom is the non-streaming baseline of the ViteX paper's motivation
// ("these challenges are not present in a non-streaming XML query evaluation
// algorithm since predicates can be checked immediately by randomly
// accessing XML nodes", §1) and the correctness oracle for the streaming
// engines: it materializes the whole document in memory and evaluates XPath
// by recursive descent with random access. Its results define the expected
// output of every integration and property test in the repository.
package dom

import (
	"sort"
	"strings"

	"repro/internal/sax"
	"repro/internal/xmlout"
)

// NodeKind discriminates DOM node variants.
type NodeKind uint8

const (
	// ElementNode is an element; Name and Attrs are set.
	ElementNode NodeKind = iota
	// TextNode is a maximal character-data run; Text is set.
	TextNode
	// AttrNode is a virtual node materialized for attribute query
	// results; Name and Text (the value) are set. Attribute nodes are
	// not stored in Children — they are reached through Attrs and
	// materialized lazily by the evaluator.
	AttrNode
)

// Node is a DOM node. Seq is the document-order sequence number used for
// sorting and deduplicating result sets (attribute nodes order directly
// after their owner element, in attribute document order).
type Node struct {
	Kind     NodeKind
	Name     string
	Text     string
	Attrs    []sax.Attr
	Parent   *Node
	Children []*Node
	Depth    int
	Seq      int

	// attrNodes caches materialized AttrNode children, index-aligned
	// with Attrs.
	attrNodes []*Node
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
	// NumNodes counts elements and text nodes (the |D| of complexity
	// discussions, up to a constant).
	NumNodes int
}

// Build materializes the document produced by a sax.Driver. The tree keeps
// every string it is handed, so text and attribute values — transient per the
// sax.Handler lifetime rule — are cloned on the way in.
func Build(d sax.Driver) (*Document, error) {
	b := &builder{}
	if err := d.Run(sax.PerEvent(b.handle)); err != nil {
		return nil, err
	}
	return b.doc, nil
}

type builder struct {
	doc   *Document
	stack []*Node
	seq   int
}

func (b *builder) handle(ev *sax.Event) error {
	switch ev.Kind {
	case sax.StartDocument:
		b.doc = &Document{}
	case sax.StartElement:
		n := &Node{Kind: ElementNode, Name: ev.Name, Depth: ev.Depth, Seq: b.seq}
		b.seq++
		if len(ev.Attrs) > 0 {
			n.Attrs = append([]sax.Attr(nil), ev.Attrs...)
			for i := range n.Attrs {
				n.Attrs[i].Value = strings.Clone(n.Attrs[i].Value)
			}
			// Reserve sequence numbers so attribute nodes sort right
			// after their owner, in document order.
			b.seq += len(ev.Attrs)
		}
		if len(b.stack) == 0 {
			b.doc.Root = n
		} else {
			p := b.stack[len(b.stack)-1]
			n.Parent = p
			p.Children = append(p.Children, n)
		}
		b.stack = append(b.stack, n)
		b.doc.NumNodes++
	case sax.EndElement:
		b.stack = b.stack[:len(b.stack)-1]
	case sax.Text:
		p := b.stack[len(b.stack)-1]
		n := &Node{Kind: TextNode, Text: strings.Clone(ev.Text), Depth: ev.Depth, Seq: b.seq, Parent: p}
		b.seq++
		p.Children = append(p.Children, n)
		b.doc.NumNodes++
	}
	return nil
}

// AttrNode materializes (and caches) the virtual attribute node for
// attribute i of element n.
func (n *Node) AttrNode(i int) *Node {
	if n.attrNodes == nil {
		n.attrNodes = make([]*Node, len(n.Attrs))
	}
	if n.attrNodes[i] == nil {
		n.attrNodes[i] = &Node{
			Kind:   AttrNode,
			Name:   n.Attrs[i].Name,
			Text:   n.Attrs[i].Value,
			Parent: n,
			Depth:  n.Depth, // attributes live at their owner's level
			Seq:    n.Seq + 1 + i,
		}
	}
	return n.attrNodes[i]
}

// StringValue returns the XPath string-value: an element's is the
// concatenation of all descendant text; a text node's is its content; an
// attribute node's is its value.
func (n *Node) StringValue() string {
	switch n.Kind {
	case TextNode, AttrNode:
		return n.Text
	}
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	for _, c := range n.Children {
		switch c.Kind {
		case TextNode:
			b.WriteString(c.Text)
		case ElementNode:
			c.appendText(b)
		}
	}
}

// Serialize renders the node with the repository's canonical serialization
// (see package xmlout). Attribute nodes render as their value; text nodes as
// escaped text.
func (n *Node) Serialize() string {
	var b strings.Builder
	n.serialize(&b)
	return b.String()
}

func (n *Node) serialize(b *strings.Builder) {
	switch n.Kind {
	case AttrNode:
		b.WriteString(n.Text)
	case TextNode:
		xmlout.EscapeText(b, n.Text)
	case ElementNode:
		var attrs []xmlout.Attr
		for _, a := range n.Attrs {
			attrs = append(attrs, xmlout.Attr{Name: a.Name, Value: a.Value})
		}
		if len(n.Children) == 0 {
			xmlout.OpenTag(b, n.Name, attrs, true)
			return
		}
		xmlout.OpenTag(b, n.Name, attrs, false)
		for _, c := range n.Children {
			c.serialize(b)
		}
		xmlout.CloseTag(b, n.Name)
	}
}

// SortNodes orders nodes by document order and removes duplicates in place.
func SortNodes(nodes []*Node) []*Node {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Seq < nodes[j].Seq })
	out := nodes[:0]
	var prev *Node
	for _, n := range nodes {
		if n != prev {
			out = append(out, n)
		}
		prev = n
	}
	return out
}
