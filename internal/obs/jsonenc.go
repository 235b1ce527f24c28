package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The hand-written JSON writers (the Chrome trace, series.json) append
// values with these helpers, which render bytes exactly as
// encoding/json does, and lay out reflective output with
// AppendIndented, which does what json.Indent does in one pass.

// AppendInt appends key, then v in decimal.
func AppendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// AppendJSONFloat formats a finite f as encoding/json does: shortest
// 'f', or 'e' with a one-digit exponent unpadded outside [1e-6, 1e21).
// NaN and ±Inf have no JSON form; callers reject them first.
func AppendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 -> e-9
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal the way
// encoding/json writes it inside a document: HTML-safe (<, > and &
// escaped), the line and paragraph separators U+2028 and U+2029
// escaped, invalid UTF-8 replaced by an escaped U+FFFD.
func AppendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendIndented appends src, a compact JSON value as json.Marshal
// writes it, laid out as json.Indent does with width spaces per level
// and a prefix of depth levels: a value that sits depth levels deep in
// an indented document. Strings are copied verbatim and an empty object
// or array stays {} or []. No newline follows the value.
func AppendIndented(dst, src []byte, depth, width int) []byte {
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++ // the escaped byte cannot end the string
				}
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if end := c + 2; src[i+1] == end { // '{'+2 is '}', '['+2 is ']'
				dst = append(dst, end)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth*width)
		case '}', ']':
			depth--
			dst = appendNewline(dst, depth*width)
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth*width)
		case ':':
			dst = append(dst, c, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendNewline starts a line indented by n spaces.
func appendNewline(dst []byte, n int) []byte {
	dst = append(dst, '\n')
	for range n {
		dst = append(dst, ' ')
	}
	return dst
}
