package obs

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The hand-written Chrome trace writer appends values with these two
// helpers, which render bytes exactly as encoding/json does.

// appendJSONFloat formats a finite f as encoding/json does: shortest
// 'f', or 'e' with a one-digit exponent unpadded outside [1e-6, 1e21).
// NaN and ±Inf have no JSON form; callers reject them first.
func appendJSONFloat(b []byte, f float64) []byte {
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

// appendJSONString appends s as a JSON string literal the way
// encoding/json writes it inside a document: HTML-safe (<, > and &
// escaped), the line and paragraph separators U+2028 and U+2029
// escaped, invalid UTF-8 replaced by an escaped U+FFFD.
func appendJSONString(b []byte, s string) []byte {
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
