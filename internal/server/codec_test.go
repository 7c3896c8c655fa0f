package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// encodeJSON is the reference encoding of a delivery line.
func encodeJSON(t *testing.T, d *Delivery) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(d); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzDeliveryCodec holds the codec to encoding/json: (a) AppendDelivery
// writes the same bytes as json.Encoder.Encode; (b) ParseDelivery reads them
// back to what json.Unmarshal reads, which is the delivery itself when its
// strings are valid UTF-8, and does so on the fast path when every integer
// has at most 18 digits; (c) ParseDelivery accepts any line exactly when
// json.Unmarshal does, with the same result, and so does the fast path on
// every line it accepts.
//
//	go test -fuzz=FuzzDeliveryCodec -fuzztime=10m ./internal/server
func FuzzDeliveryCodec(f *testing.F) {
	f.Add("result", int64(3), int64(0), int64(122), "<price>10</price>", int64(26), int64(26), int64(0), int64(0), int64(0), "",
		[]byte(`{"type":"result","doc_seq":3,"seq":0,"node_offset":122,"value":"\u003cprice\u003e10\u003c/price\u003e"}`))
	f.Add("gap", int64(7), int64(0), int64(0), "", int64(0), int64(0), int64(1220), int64(5), int64(7), GapSlowConsumer,
		[]byte(" {\"reason\" : \"slow consumer\", \"type\":\"gap\",\r\n\t\"dropped\":1220}\n"))
	f.Add("end", int64(0), int64(0), int64(0), "", int64(0), int64(0), int64(0), int64(0), int64(0), "",
		[]byte(`{"type":"end","extra":{"a":[1,-2.5e+3,true,false,null,"x\"y"],"b":{}},"more":[]}`))
	f.Add("result", int64(-1), int64(1<<62), int64(-1<<63), "quote\" backslash\\ slash/ \b\f\n\r\t <>& \x00\x01\x1f\x7f", int64(1), int64(2), int64(0), int64(0), int64(0), "",
		[]byte(`{"value":"\ud83d\ude00 \ud800 \udc00 \ud800\u0041 \uDBFF\uDFFF \/","TYPE":"gap","ſeq":5,"node_oFFset":-0}`))
	f.Add("result", int64(1), int64(1), int64(1), "invalid \xff\xfe utf-8 \xc3 and \xed\xa0\x80 surrogate", int64(0), int64(0), int64(0), int64(0), int64(0), "reason\xe2\x80",
		[]byte("{\"value\":\"raw \xff bytes \xe2\x80\xa8\"}"))
	f.Add("result", int64(1), int64(0), int64(0), "line\u2028separator\u2029paragraph", int64(0), int64(0), int64(0), int64(0), int64(0), "",
		[]byte(`{"seq":9223372036854775807,"doc_seq":-9223372036854775808}`))
	f.Add("result", int64(1), int64(0), int64(0), strings.Repeat("<a>x&amp;y</a>\n", 1<<16), int64(0), int64(0), int64(0), int64(0), int64(0), "",
		[]byte(`{"seq":1.0}`))
	f.Add("result", int64(0), int64(0), int64(0), "<a href=\"x\">&amp;</a>", int64(-5), int64(-1), int64(0), int64(0), int64(0), "",
		[]byte(`{"type":"result","doc_seq":-4,"seq":0,"node_offset":0,"value":"\u003ca\u003e\u0026amp;\\\"","confirmed_at":-0}`+"\n"))
	f.Add("gap", int64(999999999999999999), int64(0), int64(0), "", int64(0), int64(0), int64(-999999999999999999), int64(1), int64(2), GapReplaced,
		[]byte(`{"type":"result","doc_seq":1234567890123456789,"seq":0,"node_offset":0}`+"\n"))
	f.Fuzz(func(t *testing.T, typ string, docSeq, seq, nodeOffset int64, value string, confirmedAt, deliveredAt, dropped, from, to int64, reason string, line []byte) {
		d := Delivery{Type: typ, DocSeq: docSeq, Seq: seq, NodeOffset: nodeOffset, Value: value,
			ConfirmedAt: confirmedAt, DeliveredAt: deliveredAt, Dropped: dropped, FromCursor: from, ToCursor: to, Reason: reason}

		// (a)
		want := encodeJSON(t, &d)
		got := AppendDelivery(nil, &d)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendDelivery:\n got %q\nwant %q", got, want)
		}

		// (b)
		var back, ref Delivery
		if err := ParseDelivery(got, &back); err != nil {
			t.Fatalf("ParseDelivery refuses its own line %q: %v", got, err)
		}
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if back != ref {
			t.Fatalf("round trip of %q:\n got %+v\nwant %+v", got, back, ref)
		}
		if utf8.ValidString(typ) && utf8.ValidString(value) && utf8.ValidString(reason) && back != d {
			t.Fatalf("round trip:\n got %+v\nwant %+v", back, d)
		}
		var fast Delivery
		short := true
		for _, v := range [...]int64{docSeq, seq, nodeOffset, confirmedAt, deliveredAt, dropped, from, to} {
			short = short && -1e18 < v && v < 1e18
		}
		if short && (!parseCanonical(got, &fast) || fast != back) {
			t.Fatalf("fast path on %q: got %+v, want %+v", got, fast, back)
		}

		// (c)
		var mine, theirs Delivery
		err := ParseDelivery(line, &mine)
		jsonErr := json.Unmarshal(line, &theirs)
		if (err == nil) != (jsonErr == nil) {
			t.Fatalf("ParseDelivery(%q) = %v, encoding/json %v", line, err, jsonErr)
		}
		if err == nil && mine != theirs {
			t.Fatalf("ParseDelivery(%q):\n got %+v\nwant %+v", line, mine, theirs)
		}
		if parseCanonical(line, &fast) && (jsonErr != nil || fast != theirs) {
			t.Fatalf("fast path on %q: got %+v, encoding/json %+v (%v)", line, fast, theirs, jsonErr)
		}
	})
}

// TestParseCanonicalFallsBack: a line that is not in AppendDelivery's form
// leaves the fast path, and ParseDelivery still decodes it.
func TestParseCanonicalFallsBack(t *testing.T) {
	for _, line := range []string{
		`{"type":"result","doc_seq":1234567890123456789,"seq":0,"node_offset":0}`,
		`{"type":"result","seq":0,"node_offset":0}` + "\n\n",
		`{"type":"result", "seq":0,"node_offset":0}`,
		`{"seq":0,"type":"result","node_offset":0}`,
		`{"type":"result","seq":0,"node_offset":0,"value":"v","doc_seq":2}`,
		`{"type":"result","seq":0,"node_offset":0,"extra":1}`,
	} {
		var d Delivery
		if parseCanonical([]byte(line), &d) {
			t.Fatalf("fast path accepted %q", line)
		}
		if err := ParseDelivery([]byte(line), &d); err != nil {
			t.Fatalf("ParseDelivery(%q): %v", line, err)
		}
	}
}

// TestParseDeliveryAllocs pins the decoder's allocations: a result line
// allocates its value and nothing else, an end line nothing.
func TestParseDeliveryAllocs(t *testing.T) {
	for _, tc := range []struct {
		d      Delivery
		allocs float64
	}{
		{Delivery{Type: DeliveryResult, DocSeq: 41, Seq: 7, NodeOffset: 12345, Value: "<price>10.25</price>", ConfirmedAt: 88, DeliveredAt: 88}, 1},
		{Delivery{Type: DeliveryEnd}, 0},
	} {
		line := AppendDelivery(nil, &tc.d)
		var d Delivery
		got := testing.AllocsPerRun(100, func() {
			if err := ParseDelivery(line, &d); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.allocs || d != tc.d {
			t.Fatalf("ParseDelivery(%q): %v allocations, %+v; want %v, %+v", line, got, d, tc.allocs, tc.d)
		}
	}
}

// TestParseDeliveryAccepts: lines other encoders could write — any member
// order, whitespace, escapes, unknown keys, keys in another case, null —
// decode as encoding/json decodes them.
func TestParseDeliveryAccepts(t *testing.T) {
	for _, line := range []string{
		`{}`,
		`{"type":"end"}` + "\n",
		"\t{ \"seq\" : 4 , \"type\" : \"result\" }\r\n",
		`{"value":"a\u003cb\u003e \ud83d\ude00 \ud800x \"q\" \\ \/ \b\f\n\r\t","type":"result"}`,
		`{"t\u0079pe":"gap","Reason":"slow consumer","DROPPED":3,"ſeq":2}`,
		`{"unknown":{"nested":[1,2.5,-3e-2,"s",true,false,null,{}],"e":[]},"type":"gap","doc_seq":1}`,
		`{"type":"result","type":"gap"}`,
		`{"doc_seq":-9223372036854775808,"seq":9223372036854775807,"node_offset":-0}`,
		"{\"value\":\"raw \xff\xc3 invalid, raw \xe2\x80\xa8 separator\"}",
		`null`,
		`{"type":null}`,
		`{"x":` + strings.Repeat("[", 1002) + strings.Repeat("]", 1002) + `}`,
	} {
		var got, want Delivery
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("bad test line %q: %v", line, err)
		}
		if err := ParseDelivery([]byte(line), &got); err != nil {
			t.Fatalf("ParseDelivery(%q): %v", line, err)
		}
		if got != want {
			t.Fatalf("ParseDelivery(%q):\n got %+v\nwant %+v", line, got, want)
		}
	}
}

// TestParseDeliveryRejects: malformed and truncated lines, and values an
// int64 or string field cannot hold, are errors.
func TestParseDeliveryRejects(t *testing.T) {
	for _, line := range []string{
		``,
		"\n",
		`[]`,
		`{"type":"result"`,
		`{"type":"result","seq":`,
		`{"type":"res`,
		`{"type":"result"} x`,
		`{"type":"result"}{}`,
		"{\"type\":\"result\"}\x00",
		`{"type":"result",}`,
		`{"type" "result"}`,
		`{type:"result"}`,
		`{"seq":1.5}`,
		`{"seq":1e3}`,
		`{"seq":01}`,
		`{"seq":-}`,
		`{"seq":9223372036854775808}`,
		`{"seq":-9223372036854775809}`,
		`{"seq":"1"}`,
		`{"type":1}`,
		"{\"value\":\"tab\tinside\"}",
		`{"value":"\x"}`,
		`{"value":"\u12"}`,
		`{"value":"\u12g4"}`,
		`{"x":[1,]}`,
		`{"x":{"a"}}`,
		`{"x":tru}`,
		`{"x":.5}`,
		`{"x":1.}`,
	} {
		var d Delivery
		if err := ParseDelivery([]byte(line), &d); err == nil {
			t.Fatalf("ParseDelivery(%q) accepted %+v", line, d)
		}
	}
}

// BenchmarkParseDelivery decodes a result line of srv_result_heavy's shape:
// as the server writes it, on the fast path, and with one leading space,
// which sends it to encoding/json as a line from another writer would be.
func BenchmarkParseDelivery(b *testing.B) {
	line := AppendDelivery(nil, &Delivery{Type: DeliveryResult, DocSeq: 1041, Seq: 317, NodeOffset: 31742,
		Value: "<price>104.25</price>", ConfirmedAt: 2213, DeliveredAt: 2213})
	for _, bc := range []struct {
		name string
		line []byte
	}{{"ParseDelivery", line}, {"fallback", append([]byte{' '}, line...)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var d Delivery
			for range b.N {
				if err := ParseDelivery(bc.line, &d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
