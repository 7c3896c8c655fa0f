package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// The result stream's NDJSON codec. AppendDelivery writes what
// json.NewEncoder(w).Encode(d) writes, byte for byte, without reflection.
// ParseDelivery decodes exactly what encoding/json decodes into a Delivery,
// to the same value: the lines AppendDelivery writes on a reflection-free
// fast path, any other line through encoding/json. FuzzDeliveryCodec holds
// both to encoding/json.

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies into a string as they
// are: printable, and neither a quote, a backslash nor one of the
// HTML-sensitive <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// AppendDelivery appends d's NDJSON line, trailing newline included, to dst.
// The bytes equal json.NewEncoder(w).Encode(d): the same member order, the
// same omitempty members (all but type, seq and node_offset), HTML-safe
// escaping, and the escape of U+FFFD for each byte of invalid UTF-8.
//
//vitex:hotpath
func AppendDelivery(dst []byte, d *Delivery) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, d.Type)
	dst = appendInt(dst, `,"doc_seq":`, d.DocSeq)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendInt(dst, d.Seq, 10)
	dst = append(dst, `,"node_offset":`...)
	dst = strconv.AppendInt(dst, d.NodeOffset, 10)
	if d.Value != "" {
		dst = append(dst, `,"value":`...)
		dst = appendString(dst, d.Value)
	}
	dst = appendInt(dst, `,"confirmed_at":`, d.ConfirmedAt)
	dst = appendInt(dst, `,"delivered_at":`, d.DeliveredAt)
	dst = appendInt(dst, `,"dropped":`, d.Dropped)
	dst = appendInt(dst, `,"from_cursor":`, d.FromCursor)
	dst = appendInt(dst, `,"to_cursor":`, d.ToCursor)
	if d.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, d.Reason)
	}
	return append(dst, '}', '\n')
}

// appendInt appends an omitempty integer member: key and v, unless v is 0.
//
//vitex:hotpath
func appendInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendString appends s as encoding/json's encoder writes a string with
// HTML escaping on.
//
//vitex:hotpath
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// The other control bytes, and <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			// Valid JSON, but a line terminator to JavaScript.
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParseDelivery decodes one NDJSON line into *d, which it zeroes first,
// exactly as json.Unmarshal decodes it: it accepts what encoding/json
// accepts, to the same value, and returns encoding/json's error for the
// rest, a truncated line included.
//
// A line in AppendDelivery's form, which every line the server writes is,
// takes a fast path (parseCanonical); any other line is decoded from the
// start by encoding/json.
//
//vitex:hotpath
func ParseDelivery(line []byte, d *Delivery) error {
	if parseCanonical(line, d) {
		return nil
	}
	*d = Delivery{}
	return json.Unmarshal(line, d)
}

// parseCanonical decodes a line as AppendDelivery writes it: its members in
// its order, no whitespace between them, integers of at most 18 digits, and
// one optional trailing newline. It reports false, with *d partly written, for any other line.
//
//vitex:hotpath
func parseCanonical(line []byte, d *Delivery) bool {
	*d = Delivery{}
	p := parser{b: line}
	if !p.key(`{"type":`) || p.text(&d.Type) != nil ||
		!p.optInt(`,"doc_seq":`, &d.DocSeq) ||
		!p.key(`,"seq":`) || !p.canonInt(&d.Seq) ||
		!p.key(`,"node_offset":`) || !p.canonInt(&d.NodeOffset) {
		return false
	}
	if p.key(`,"value":`) && p.text(&d.Value) != nil {
		return false
	}
	if !p.optInt(`,"confirmed_at":`, &d.ConfirmedAt) ||
		!p.optInt(`,"delivered_at":`, &d.DeliveredAt) ||
		!p.optInt(`,"dropped":`, &d.Dropped) ||
		!p.optInt(`,"from_cursor":`, &d.FromCursor) ||
		!p.optInt(`,"to_cursor":`, &d.ToCursor) {
		return false
	}
	if p.key(`,"reason":`) && p.text(&d.Reason) != nil {
		return false
	}
	rest := p.b[p.i:]
	return string(rest) == "}\n" || string(rest) == "}"
}

// key consumes lit if the line continues with it.
func (p *parser) key(lit string) bool {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	return true
}

// optInt decodes an omitempty integer member: false only when key is there
// and its value is not a canonical integer.
func (p *parser) optInt(key string, dst *int64) bool {
	return !p.key(key) || p.canonInt(dst)
}

// canonInt decodes an integer as strconv.AppendInt writes it, of at most 18
// digits, so that it cannot overflow.
func (p *parser) canonInt(dst *int64) bool {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		v = v*10 + int64(b[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || n > 1 && b[start] == '0' {
		return false
	}
	if neg {
		v = -v
	}
	*dst, p.i = v, i
	return true
}

// parser is a cursor over one line.
type parser struct {
	b []byte
	i int
}

func (p *parser) fail() error {
	return fmt.Errorf("server: malformed delivery line at byte %d", p.i)
}

// text decodes a string value into *dst. A delivery type costs no
// allocation.
func (p *parser) text(dst *string) error {
	if p.i == len(p.b) || p.b[p.i] != '"' {
		return p.fail()
	}
	var buf [128]byte
	s, err := p.str(buf[:0])
	if err != nil {
		return err
	}
	switch string(s) {
	case DeliveryResult:
		*dst = DeliveryResult
	case DeliveryGap:
		*dst = DeliveryGap
	case DeliveryEnd:
		*dst = DeliveryEnd
	default:
		*dst = string(s)
	}
	return nil
}

// strPlain marks the bytes a JSON string holds as they are: printable ASCII
// other than the quote and the backslash.
var strPlain = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// str consumes the string whose opening quote is under the cursor and
// returns its decoded bytes: a subslice of the line when nothing needs
// decoding, otherwise dst with the decoded bytes appended. Decoding follows
// encoding/json: each byte of invalid UTF-8, and an escaped surrogate that
// is not half of a pair, become U+FFFD.
func (p *parser) str(dst []byte) ([]byte, error) {
	b := p.b
	start := p.i + 1
	i := plainRun(b, start)
	if i < len(b) && b[i] == '"' {
		p.i = i + 1
		return b[start:i], nil
	}
	dst = append(dst, b[start:i]...)
	for p.i = i; p.i < len(b); {
		switch c := b[p.i]; {
		case strPlain[c]:
			i = plainRun(b, p.i)
			dst = append(dst, b[p.i:i]...)
			p.i = i
		case c == '"':
			p.i++
			return dst, nil
		case c == '\\':
			var err error
			if dst, err = p.escape(dst); err != nil {
				return nil, err
			}
		case c < 0x20:
			return nil, p.fail()
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, r)
			} else {
				dst = append(dst, p.b[p.i:p.i+size]...)
			}
			p.i += size
		}
	}
	return nil, p.fail()
}

// plainRun returns the index of the first byte at or after i in b that is
// not strPlain.
func plainRun(b []byte, i int) int {
	for i < len(b) && strPlain[b[i]] {
		i++
	}
	return i
}

// escape decodes the escape sequence whose backslash is under the cursor
// and appends it to dst.
func (p *parser) escape(dst []byte) ([]byte, error) {
	p.i++
	if p.i == len(p.b) {
		return nil, p.fail()
	}
	e := p.b[p.i]
	p.i++
	switch e {
	case '"', '\\', '/':
		return append(dst, e), nil
	case 'b':
		return append(dst, '\b'), nil
	case 'f':
		return append(dst, '\f'), nil
	case 'n':
		return append(dst, '\n'), nil
	case 'r':
		return append(dst, '\r'), nil
	case 't':
		return append(dst, '\t'), nil
	case 'u':
		r := hex4(p.b[p.i:])
		if r < 0 {
			return nil, p.fail()
		}
		p.i += 4
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if p.i+1 < len(p.b) && p.b[p.i] == '\\' && p.b[p.i+1] == 'u' {
				r2 = hex4(p.b[p.i+2:])
			}
			if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
				p.i += 6
			}
		}
		return utf8.AppendRune(dst, r), nil
	}
	p.i--
	return nil, p.fail()
}

// hex4 parses the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
