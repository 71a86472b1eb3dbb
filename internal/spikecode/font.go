package spikecode

import "github.com/cognitive-sim/compass/internal/prng"

// The 5×7 dot-matrix digit font and its glyph helpers, used by the
// charrec scenario.

// Glyph geometry.
const (
	GlyphW    = 5
	GlyphH    = 7
	GlyphBits = GlyphW * GlyphH
)

// font5x7 is a standard 5×7 dot-matrix digit font, one string per row.
var font5x7 = map[rune][]string{
	'0': {" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "},
	'1': {"  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "},
	'2': {" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"},
	'3': {" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "},
	'4': {"   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "},
	'5': {"#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "},
	'6': {" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "},
	'7': {"#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "},
	'8': {" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "},
	'9': {" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "},
}

// Glyph returns the row-major pixel bits of a font glyph; ok is false
// for characters outside the font.
func Glyph(r rune) (bits []bool, ok bool) {
	rows, ok := font5x7[r]
	if !ok {
		return nil, false
	}
	out := make([]bool, GlyphBits)
	for y, row := range rows {
		for x, c := range row {
			out[y*GlyphW+x] = c == '#'
		}
	}
	return out, true
}

// Popcount counts the set bits of a pattern.
func Popcount(p []bool) int {
	n := 0
	for _, b := range p {
		if b {
			n++
		}
	}
	return n
}

// FlipPixels returns a copy of p with n randomly chosen pixels toggled
// (positions drawn from rng; the same position may be drawn twice).
func FlipPixels(p []bool, n int, rng *prng.Stream) []bool {
	out := append([]bool(nil), p...)
	for i := 0; i < n; i++ {
		idx := rng.Intn(len(out))
		out[idx] = !out[idx]
	}
	return out
}

// BitsToObs widens a binary pattern to the float observation vector the
// OneHot encoder consumes.
func BitsToObs(p []bool) []float64 {
	out := make([]float64, len(p))
	for i, b := range p {
		if b {
			out[i] = 1
		}
	}
	return out
}
