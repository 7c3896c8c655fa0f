package xpath

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexer token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokSlash
	tokDSlash // //
	tokName
	tokStar
	tokAt
	tokLBracket
	tokRBracket
	tokLParen
	tokRParen
	tokDot
	tokAnd
	tokOr
	tokOp      // comparison operator, value in op
	tokString  // quoted literal, value in text
	tokNumber  // numeric literal, value in num/text
	tokPipe    // '|', union of paths
	tokInvalid // lexical error
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of query"
	case tokSlash:
		return "'/'"
	case tokDSlash:
		return "'//'"
	case tokName:
		return "name"
	case tokStar:
		return "'*'"
	case tokAt:
		return "'@'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokDot:
		return "'.'"
	case tokAnd:
		return "'and'"
	case tokOr:
		return "'or'"
	case tokOp:
		return "comparison operator"
	case tokString:
		return "string literal"
	case tokNumber:
		return "number"
	case tokPipe:
		return "'|'"
	default:
		return "invalid token"
	}
}

type token struct {
	kind tokKind
	text string
	op   Op
	num  float64
	pos  int // byte offset in the query string
}

// ParseError reports a lexical or syntactic error in an XPath query, with
// the byte position at which it was detected.
type ParseError struct {
	Query string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("xpath: %s at position %d in %q", e.Msg, e.Pos, e.Query)
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) *ParseError {
	return &ParseError{Query: l.src, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		l.pos++
	}
}

// next scans one token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch c {
	case '/':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '/' {
			l.pos++
			return token{kind: tokDSlash, pos: start}, nil
		}
		return token{kind: tokSlash, pos: start}, nil
	case '*':
		l.pos++
		return token{kind: tokStar, pos: start}, nil
	case '@':
		l.pos++
		return token{kind: tokAt, pos: start}, nil
	case '[':
		l.pos++
		return token{kind: tokLBracket, pos: start}, nil
	case ']':
		l.pos++
		return token{kind: tokRBracket, pos: start}, nil
	case '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case '|':
		l.pos++
		return token{kind: tokPipe, pos: start}, nil
	case '=':
		l.pos++
		return token{kind: tokOp, op: OpEq, pos: start}, nil
	case '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, op: OpNe, pos: start}, nil
		}
		return token{}, l.errf(start, "'!' must be followed by '='")
	case '<':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, op: OpLe, pos: start}, nil
		}
		return token{kind: tokOp, op: OpLt, pos: start}, nil
	case '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, op: OpGe, pos: start}, nil
		}
		return token{kind: tokOp, op: OpGt, pos: start}, nil
	case '\'', '"':
		l.pos++
		i := strings.IndexByte(l.src[l.pos:], c)
		if i < 0 {
			return token{}, l.errf(start, "unterminated string literal")
		}
		if i > MaxLiteralBytes {
			return token{}, l.errf(start, "string literal longer than MaxLiteralBytes (%d)", MaxLiteralBytes)
		}
		text := l.src[l.pos : l.pos+i]
		l.pos += i + 1
		return token{kind: tokString, text: text, pos: start}, nil
	case '.':
		// Could be '.', './/...', or a number like '.5'.
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokDot, pos: start}, nil
	}
	if c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && (l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' || l.src[l.pos+1] == '.') {
		return l.lexNumber()
	}
	if isNameStartRune(rune(c)) || c >= utf8.RuneSelf {
		return l.lexName()
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	if len(text) > MaxLiteralBytes {
		return token{}, l.errf(start, "numeric literal longer than MaxLiteralBytes (%d)", MaxLiteralBytes)
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return token{}, l.errf(start, "bad number %q", text)
	}
	return token{kind: tokNumber, text: text, num: f, pos: start}, nil
}

func (l *lexer) lexName() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isNameRune(r) {
			break
		}
		l.pos += size
	}
	name := l.src[start:l.pos]
	switch name {
	case "and":
		return token{kind: tokAnd, pos: start}, nil
	case "or":
		return token{kind: tokOr, pos: start}, nil
	}
	return token{kind: tokName, text: name, pos: start}, nil
}

func isNameStartRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameRune(r rune) bool {
	return isNameStartRune(r) || r == '-' || r == '.' || unicode.IsDigit(r) || r == ':'
}
