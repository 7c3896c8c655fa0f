package saxtest

import "strings"

// EdgeDocs is the seeded corpus of the front-end differentials: documents
// whose XML surface — namespaces, BOMs, CDATA, entities, comments and PIs
// splitting text, line-end normalization — a scanner could plausibly get
// wrong and StdDriver gets right. Each entry names the surface it exercises.
func EdgeDocs() []struct{ Name, Doc string } {
	deep := strings.Repeat("<a k='1'>", 60) + "x" + strings.Repeat("</a>", 60)
	return []struct{ Name, Doc string }{
		{"plain", `<r><a>x</a><b>y</b></r>`},
		{"prefixes", `<r xmlns:p='u'><p:a>x</p:a><a>y</a></r>`},
		{"prefixAttrs", `<r xmlns:p='u'><a p:k='1' k='2'>x</a></r>`},
		{"defaultNS", `<r xmlns='u'><a>x</a><a>y</a></r>`},
		{"nestedNS", `<r xmlns:p='u'><p:a><b xmlns:q='v'><q:c>z</q:c></b></p:a></r>`},
		{"utf8BOM", "\xEF\xBB\xBF<r><a>1</a><a>2</a></r>"},
		{"bomAndDecl", "\xEF\xBB\xBF<?xml version=\"1.0\"?><r><a>1</a></r>"},
		{"cdata", `<r><a>one<![CDATA[ & two <raw> ]]>three</a></r>`},
		{"cdataOnly", `<r><a><![CDATA[x]]></a></r>`},
		{"entityAttrs", `<r><a k="x&amp;y&#65;&quot;" j='&lt;&gt;'>v</a></r>`},
		{"entityText", `<r><a>x &amp; y &#x41;</a></r>`},
		{"commentSplit", `<r><a>one<!-- c -->two</a></r>`},
		{"piSplit", `<r><a>one<?pi data?>two</a></r>`},
		{"selfClosing", `<r><a k='1'/><a></a><a/></r>`},
		{"deepNesting", "<r>" + deep + "</r>"},
		{"declDoctype", `<?xml version="1.0" encoding="UTF-8"?><r><a>x</a></r>`},
		{"whitespace", "<r>\n  <a>x</a>\n  <a>\ty\r\n</a>\n</r>"},
		{"crlf", "<r>\r\n<a k='v\r\nw\rz'>one\r\ntwo\rthree</a>\r</r>"},
		{"crlfCDATA", "<r><a><![CDATA[a\r\nb\rc]]>\r\nd</a></r>"},
		{"charRefCR", "<r><a k='x&#13;y'>p&#13;q</a></r>"},
	}
}
