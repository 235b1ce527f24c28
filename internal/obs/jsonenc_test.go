package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// jsonPieces are the string fragments encoding/json escapes or passes
// through in ways an indenter could trip on: quotes and backslashes
// (escaped quotes end no string), JSON punctuation inside strings, the
// HTML-escaped <>&, control bytes, U+2028/U+2029, invalid UTF-8 and
// multi-byte runes.
var jsonPieces = []string{`"`, `\`, `\"`, `"\`, "{", "}", "[", "]", ",", ":", "{}", "[]", "<", ">", "&",
	"\n", "\t", "\x00", "\x1f", "\u2028", "\u2029", "\xff", "\xe2\x80", "é", "µ", "\U0001F600", "a", " ", "/"}

func randJSONString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		b.WriteString(jsonPieces[rng.Intn(len(jsonPieces))])
	}
	return b.String()
}

// randJSONValue draws a value of up to depth levels of objects and
// arrays, empty ones included, around strings, numbers, booleans, null
// and a raw message json.Marshal must compact.
func randJSONValue(rng *rand.Rand, depth int) any {
	k := rng.Intn(10)
	if depth <= 0 {
		k = 4 + rng.Intn(6)
	}
	switch k {
	case 0, 1:
		m := map[string]any{}
		for n := rng.Intn(5); n > 0; n-- {
			m[randJSONString(rng)] = randJSONValue(rng, depth-1)
		}
		return m
	case 2, 3:
		a := []any{}
		for n := rng.Intn(5); n > 0; n-- {
			a = append(a, randJSONValue(rng, depth-1))
		}
		return a
	case 4:
		return randJSONString(rng)
	case 5:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(900+rng.Intn(250))<<52) // 1e-37 to 1e37, either sign
	case 6:
		return rng.Int63() >> uint(rng.Intn(63)) * int64(1-2*rng.Intn(2))
	case 7:
		return rng.Intn(2) == 0
	case 8:
		return nil
	default:
		return json.RawMessage(" { \"raw\" : [ 1 , { } , [ ] , \"a b\" ] } ")
	}
}

// TestAppendIndentedProperty holds AppendIndented over
// json.Marshal's output to what json.Encoder writes with SetIndent("",
// " ") and to json.Indent at widths 1 and 2, with and without a prefix
// of depth levels, byte for byte, on random documents: shallow and
// deeply nested, top-level scalars included.
func TestAppendIndentedProperty(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10_000; i++ {
		v := randJSONValue(rng, rng.Intn(6))
		if i%100 == 0 { // 40 levels deep, with siblings on the way down
			for range 40 {
				if rng.Intn(2) == 0 {
					v = map[string]any{randJSONString(rng): v, "": []any{}}
				} else {
					v = []any{randJSONValue(rng, 1), v, map[string]any{}}
				}
			}
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", " ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := append(AppendIndented(nil, compact, 0, 1), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: document %d: %s\n--- got ---\n%s--- want ---\n%s", seed, i, compact, got, want.Bytes())
		}
		for _, width := range []int{1, 2} {
			depth := rng.Intn(4)
			want.Reset()
			indent := strings.Repeat(" ", width)
			if err := json.Indent(&want, compact, strings.Repeat(indent, depth), indent); err != nil {
				t.Fatal(err)
			}
			if got := AppendIndented(nil, compact, depth, width); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("seed %d: document %d at depth %d, width %d: %s\n--- got ---\n%s\n--- want ---\n%s",
					seed, i, depth, width, compact, got, want.Bytes())
			}
		}
	}
}
