// Projection: the scanner queues only the events an epoch's machines can
// observe (internal/xmlscan, project.go).
//
// Routing already skips every machine an event cannot concern; an event that
// concerns no machine and no recorder still costs its scan-side
// materialization and a trip through the router. What a machine can observe
// is static, and the epoch's tables already hold it:
//
//   - a start tag can push an entry only where its name is a step's name test
//     (elemSubs, and the shared trie's steps), and feed an attribute node only
//     where one of its attributes is named by one (attrSubs);
//   - an end tag only pops entries, so it matters exactly where its start tag
//     did;
//   - a text run matters only inside an element whose content some machine
//     reads: its output element, whose fragment it records; an element whose
//     string value it compares; the parent of its text() step. These are the
//     value roots (values), and inside one every event matters.
//
// A '*' step or a text() at the document root observes events no name
// selects, and turns projection off for the whole epoch. Everything here is
// read from tables the mutations keep up to date in O(changed), so a
// projection costs nothing to derive; a session hands its epoch to the
// scanner when a document starts, and the document is scanned under the
// membership it is evaluated against.
package engine

import "repro/internal/xmlscan"

// projection returns what ep's machines can observe of a document, nil when
// they can observe everything.
func (ep *epoch) projection() xmlscan.Projection {
	if len(ep.wild) > 0 || ep.blind > 0 || ep.trie.HasWildcard() {
		return nil
	}
	return ep
}

// Tag implements xmlscan.Projection: an element's tags are observable when a
// machine or the trie tests its name, and its content when it is a value
// root.
//
//vitex:hotpath
func (ep *epoch) Tag(id int32) (keep, root bool) {
	if id <= 0 {
		return false, false
	}
	i := int(id)
	root = i < ep.values.Len() && ep.values.At(i) > 0
	keep = root || i < ep.elemSubs.Len() && len(ep.elemSubs.At(i)) > 0 || ep.trie.Names(id)
	return keep, root
}

// Attr implements xmlscan.Projection: an attribute is observable when a
// machine tests its name.
//
//vitex:hotpath
func (ep *epoch) Attr(id int32) bool {
	return id > 0 && int(id) < ep.attrSubs.Len() && len(ep.attrSubs.At(int(id))) > 0
}
