package xpath

import (
	"strings"
	"testing"
)

// roundTripSeeds printed as queries that do not parse back until the printer
// chose quotes by content, wrote numbers without an exponent and kept the
// nesting within MaxNestingDepth.
var roundTripSeeds = []struct{ src, printed string }{
	{`//a[. = "it's"]`, `//a[. = "it's"]`},
	{`//a[@x = "q'uote"]/b`, `//a[@x = "q'uote"]/b`},
	{"//a[. = 1000000000000000000000]", "//a[. = 1000000000000000000000]"},
	{"//a[b = 0.0000001]", "//a[b = 0.0000001]"},
	// A nesting bomb at MaxNestingDepth whose innermost step has an 'or'
	// among its conjuncts: parenthesized, it would nest one level deeper.
	{nestingBomb(MaxNestingDepth-1, "[x or y][z]"), nestingBomb(MaxNestingDepth-1, "[x or y][z]")},
	{nestingBomb(MaxNestingDepth-1, "[x or y][z and w]"), nestingBomb(MaxNestingDepth-1, "[x or y][z][w]")},
	// One level up the parentheses fit.
	{nestingBomb(MaxNestingDepth-2, "[x or y][z]"), nestingBomb(MaxNestingDepth-2, "[(x or y) and z]")},
}

// nestingBomb is a query whose predicates nest depth levels, with preds on
// the innermost step one level deeper still.
func nestingBomb(depth int, preds string) string {
	return "//a" + strings.Repeat("[b", depth) + preds + strings.Repeat("]", depth)
}

func TestStringParsesBack(t *testing.T) {
	for _, s := range roundTripSeeds {
		q, err := Parse(s.src)
		if err != nil {
			t.Fatalf("%q: %v", s.src, err)
		}
		if got := q.String(); got != s.printed {
			t.Errorf("%q prints as %q, want %q", s.src, got, s.printed)
		}
		checkRoundTrip(t, s.src)
	}
}

// FuzzQueryRoundTrip: whatever Parse accepts prints as a query that parses
// back to one printing the same — parse, print, parse, print is a fixed
// point.
func FuzzQueryRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds {
		f.Add(s.src)
	}
	f.Fuzz(checkRoundTrip)
}

func checkRoundTrip(t *testing.T, src string) {
	q, err := Parse(src)
	if err != nil {
		return
	}
	printed := q.String()
	q2, err := Parse(printed)
	if err != nil {
		t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
	}
	if again := q2.String(); again != printed {
		t.Fatalf("%q prints as %q, which prints as %q", src, printed, again)
	}
}
