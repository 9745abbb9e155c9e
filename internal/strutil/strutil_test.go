package strutil

import (
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"Next", "Go To", 5},
		{"color", "colour", 1},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	sym := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(sym, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("symmetry:", err)
	}
	ident := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(ident, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("identity:", err)
	}
	bound := func(a, b string) bool {
		d := Levenshtein(a, b)
		la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
		max := la
		if lb > max {
			max = lb
		}
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(bound, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("bounds:", err)
	}
}

func TestSimilarity(t *testing.T) {
	if Similarity("Font Color", "font  color") != 1 {
		t.Error("case/space-insensitive equality should score 1")
	}
	if s := Similarity("Go To", "Go To Next"); s < 0.6 {
		t.Errorf("containment floor: %v", s)
	}
	if s := Similarity("Bold", "Italic"); s > 0.4 {
		t.Errorf("unrelated names too similar: %v", s)
	}
	if s := Similarity("Fill Color", "Fill Colour"); s < 0.8 {
		t.Errorf("near-identical names too dissimilar: %v", s)
	}
}

// TestSimilarityEmptyOperands: the containment floor must not fire when one
// normalized side is empty — strings.Contains(x, "") is always true, which
// let empty-named controls fuzzy-match nearly anything at 0.6.
func TestSimilarityEmptyOperands(t *testing.T) {
	for _, c := range [][2]string{
		{"", "Font Color"},
		{"Font Color", ""},
		{"   ", "Font Color"}, // normalizes to empty
		{"Font Color", "\t\n"},
	} {
		if s := Similarity(c[0], c[1]); s != 0 {
			t.Errorf("Similarity(%q, %q) = %v, want 0 (no containment floor)", c[0], c[1], s)
		}
	}
	if Similarity("", "") != 1 {
		t.Error("two empty strings are equal and should score 1")
	}
	if Similarity("  ", "\t") != 1 {
		t.Error("two whitespace-only strings normalize equal and should score 1")
	}
}

func TestSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		s := Similarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  Fill   Color ": "fill color",
		"OK":              "ok",
		"":                "",
		"\tA\nB":          "a b",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTruncateChars(t *testing.T) {
	if got := TruncateChars("hello world", 5); got != "hell…" {
		t.Errorf("got %q", got)
	}
	if got := TruncateChars("hi", 5); got != "hi" {
		t.Errorf("short string changed: %q", got)
	}
	if got := TruncateChars("hello", 1); got != "…" {
		t.Errorf("n=1: %q", got)
	}
}

func TestTruncateCharsProperty(t *testing.T) {
	f := func(s string, n uint8) bool {
		out := TruncateChars(s, int(n))
		return utf8.RuneCountInString(out) <= int(n) || utf8.RuneCountInString(s) <= int(n) || n <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateTokens(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"", 0},
		{"OK", 1},
		{"Bold", 1},
		{"Format Background", 5}, // ceil(6/4) + ceil(10/4)
	}
	for _, c := range cases {
		if got := EstimateTokens(c.in); got != c.want {
			t.Errorf("EstimateTokens(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	// Structural text costs more than plain words of the same length.
	if EstimateTokens(`a(b)(c)_1[d]`) <= EstimateTokens("abcd") {
		t.Error("structural characters should add tokens")
	}
}

func TestEstimateTokensMonotoneUnderConcat(t *testing.T) {
	f := func(a, b string) bool {
		return EstimateTokens(a+" "+b) >= EstimateTokens(a) &&
			EstimateTokens(a+" "+b) >= EstimateTokens(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// estimateTokensUnicode is EstimateTokens before its ASCII table: every rune
// classified by the unicode package. It is the reference the table-driven
// function must match.
func estimateTokensUnicode(s string) int {
	tokens := 0
	wordLen := 0
	flush := func() {
		if wordLen == 0 {
			return
		}
		tokens += (wordLen + 3) / 4
		wordLen = 0
	}
	for _, r := range s {
		switch {
		case unicode.IsSpace(r):
			flush()
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			wordLen++
		default:
			flush()
			tokens++
		}
	}
	flush()
	return tokens
}

func TestEstimateTokensMatchesUnicodeReference(t *testing.T) {
	var inputs []string
	for c := 0; c < utf8.RuneSelf; c++ {
		r := string(rune(c))
		inputs = append(inputs, r, "word"+r+"word", r+r+"abcde"+r)
	}
	for _, r := range []string{
		"\u0085", "\u00a0", "\u2028", "\u2003", "\u3000", // non-ASCII spaces
		"⟨", "⟩", "⟦", "⟧", "…", "–", // non-ASCII punctuation
		"é", "ñ", "Ü", "ß", "名", // non-ASCII letters
		"٣", "१", "０", // non-ASCII digits
		"\xff", "\xc3", "\xe2\x9f", // invalid UTF-8
	} {
		inputs = append(inputs, r, "word"+r+"word", "ab"+r+r+"cd ef", r+"(x)_1")
	}
	inputs = append(inputs,
		"Fönt Cölor(SplitButton)(Höme ⟨ribbon⟩ tab)_12[Blue(MenuItem)_13,+4]",
		"Zeile ١٢٣ naïve café\u0085end")
	for _, s := range inputs {
		if got, want := EstimateTokens(s), estimateTokensUnicode(s); got != want {
			t.Errorf("EstimateTokens(%q) = %d, unicode reference %d", s, got, want)
		}
	}
	same := func(s string) bool { return EstimateTokens(s) == estimateTokensUnicode(s) }
	if err := quick.Check(same, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTruncateCharsMatchesRuneSlice: the early return for strings that fit
// changes nothing, invalid UTF-8 included.
func TestTruncateCharsMatchesRuneSlice(t *testing.T) {
	ref := func(s string, n int) string {
		r := []rune(s)
		if len(r) <= n {
			return s
		}
		if n <= 1 {
			return "…"
		}
		return string(r[:n-1]) + "…"
	}
	for _, s := range []string{"", "a", "héllo wörld", "名前名前", "\xff\xfe", "ab\xc3", "⟨x⟩ y"} {
		for n := -1; n <= 12; n++ {
			if got, want := TruncateChars(s, n), ref(s, n); got != want {
				t.Errorf("TruncateChars(%q, %d) = %q, want %q", s, n, got, want)
			}
		}
	}
	same := func(s string, n uint8) bool { return TruncateChars(s, int(n%16)) == ref(s, int(n%16)) }
	if err := quick.Check(same, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
