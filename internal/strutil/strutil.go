// Package strutil provides small text utilities shared by the modeling and
// execution layers: edit distance, name-similarity scoring for the fuzzy
// control matcher, and token-aware truncation helpers.
package strutil

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// levScratch carries the DP rows and decoded-rune buffers one Levenshtein
// call needs. The fuzzy control matcher scores every on-screen candidate
// per observation round, so these four slices were the dominant allocation
// of the matching path; pooling amortizes them across calls and sessions.
type levScratch struct {
	prev, cur []int
	ra, rb    []rune
}

var levPool = sync.Pool{New: func() any { return new(levScratch) }}

// Levenshtein returns the edit distance between a and b.
func Levenshtein(a, b string) int {
	sc := levPool.Get().(*levScratch)
	defer levPool.Put(sc)
	ra, rb := appendRunes(sc.ra[:0], a), appendRunes(sc.rb[:0], b)
	sc.ra, sc.rb = ra, rb
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := growInts(sc.prev, len(rb)+1), growInts(sc.cur, len(rb)+1)
	sc.prev, sc.cur = prev, cur
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func appendRunes(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// Similarity returns a name-similarity score in [0,1]: 1 for equal strings
// (after case folding and space normalization), decreasing with relative
// edit distance. It is the core of the fuzzy control matcher (paper §3.4).
func Similarity(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return 1
	}
	la, lb := utf8.RuneCountInString(na), utf8.RuneCountInString(nb)
	max := la
	if lb > max {
		max = lb
	}
	if max == 0 {
		return 1
	}
	d := Levenshtein(na, nb)
	s := 1 - float64(d)/float64(max)
	if s < 0 {
		return 0
	}
	// Prefix relationships ("Go To" vs "Go To Next") matter for renamed
	// controls; give containment a floor. An empty operand is contained in
	// everything, so the floor applies only when both sides are non-empty —
	// otherwise "[Unnamed]"/empty-named controls fuzzy-match nearly anything.
	if s < 0.6 && na != "" && nb != "" &&
		(strings.Contains(na, nb) || strings.Contains(nb, na)) {
		return 0.6
	}
	return s
}

// Normalize lower-cases, trims, and collapses internal whitespace.
func Normalize(s string) string {
	var b strings.Builder
	space := false
	for _, r := range strings.TrimSpace(s) {
		if unicode.IsSpace(r) {
			space = true
			continue
		}
		if space && b.Len() > 0 {
			b.WriteByte(' ')
		}
		space = false
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// TruncateChars shortens s to at most n runes, appending "…" when truncated.
// n <= 1 returns "…" for non-empty overlong input.
func TruncateChars(s string, n int) string {
	if len(s) <= n || utf8.RuneCountInString(s) <= n {
		return s
	}
	if n <= 1 {
		return "…"
	}
	return string([]rune(s)[:n-1]) + "…"
}

// EstimateTokens estimates the LLM token count of s. It approximates a BPE
// tokenizer (the paper measures with o200k_base): whitespace-separated words
// contribute ceil(len/4) tokens with a minimum of one, and punctuation and
// structural characters contribute one token each. Letters and digits are
// word characters. ASCII bytes are classified by table; other runes by the
// unicode package.
func EstimateTokens(s string) int {
	tokens := 0
	wordLen := 0
	for i := 0; i < len(s); {
		var class byte
		if c := s[i]; c < utf8.RuneSelf {
			class = asciiClass[c]
			i++
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			class = runeClass(r)
			i += size
		}
		if class == wordRune {
			wordLen++
			continue
		}
		tokens += (wordLen + 3) / 4
		wordLen = 0
		if class == punctRune {
			tokens++
		}
	}
	return tokens + (wordLen+3)/4
}

// Rune classes of EstimateTokens.
const (
	spaceRune = iota
	wordRune
	punctRune
)

func runeClass(r rune) byte {
	switch {
	case unicode.IsSpace(r):
		return spaceRune
	case unicode.IsLetter(r) || unicode.IsDigit(r):
		return wordRune
	default:
		return punctRune
	}
}

// asciiClass is runeClass for every rune below utf8.RuneSelf.
var asciiClass = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		t[c] = runeClass(rune(c))
	}
	return t
}()
