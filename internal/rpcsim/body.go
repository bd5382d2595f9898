package rpcsim

import (
	"encoding"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"
)

// This file is the body codec every Method uses: the one place that says
// RPC bodies are JSON. For each Go type it builds, once, a plan from
// reflect; the plan appends exactly the bytes json.Marshal writes, and
// parses the canonical form of those bytes (fields in declared order,
// exact names, no whitespace) straight into the value. Any other input —
// whitespace, reordered or missing fields, a syntax or type error — is
// handed to encoding/json.Unmarshal on a zero value, so every input
// decodes exactly as json.Unmarshal decodes it, value and error text
// alike. The wire bytes must not change: Table 3's encryption,
// compression and checksum parameters act on them.
//
// The supported kinds are closed: string, bool, int, int64, uint32,
// []byte, slices of supported kinds, and structs whose fields are
// supported and untagged (unexported fields are skipped, as json skips
// them). A type outside the set panics when its codec is built, which
// for a served Method is at package initialisation.

// bodyCodec is the plan for one type.
type bodyCodec struct {
	typ    reflect.Type
	kind   reflect.Kind // reflect.Slice with elem == nil means []byte
	elem   *bodyCodec
	fields []fieldCodec
	// size is the length of the last body encoded from this type: the
	// capacity a response buffer starts with.
	size atomic.Int64
}

// fieldCodec is one exported struct field.
type fieldCodec struct {
	index int
	key   string // `"Name":`
	codec *bodyCodec
}

var (
	codecsMu sync.Mutex
	codecs   sync.Map // reflect.Type -> *bodyCodec, complete plans only
)

// codecFor returns t's plan, building it on first use.
func codecFor(t reflect.Type) *bodyCodec {
	if c, ok := codecs.Load(t); ok {
		return c.(*bodyCodec)
	}
	codecsMu.Lock()
	defer codecsMu.Unlock()
	building := make(map[reflect.Type]*bodyCodec)
	c := buildCodec(t, t.String(), building)
	for bt, bc := range building {
		codecs.LoadOrStore(bt, bc)
	}
	return c
}

// customCoding lists the methods by which a type replaces json's coding
// of its kind; a type that has one is outside the supported set.
var customCoding = []reflect.Type{
	reflect.TypeFor[interface{ MarshalJSON() ([]byte, error) }](),
	reflect.TypeFor[interface{ UnmarshalJSON([]byte) error }](),
	reflect.TypeFor[encoding.TextMarshaler](),
	reflect.TypeFor[encoding.TextUnmarshaler](),
}

// buildCodec plans t; where names t's position within the declared type,
// for the panic an unsupported type raises. building holds the plans under
// construction, so a recursive type refers to its own plan.
func buildCodec(t reflect.Type, where string, building map[reflect.Type]*bodyCodec) *bodyCodec {
	if c, ok := codecs.Load(t); ok {
		return c.(*bodyCodec)
	}
	if c, ok := building[t]; ok {
		return c
	}
	unsupported := func(why string) {
		panic(fmt.Sprintf("rpcsim: %s: unsupported wire type %s: %s", where, t, why))
	}
	pt := reflect.PointerTo(t)
	for _, m := range customCoding {
		if t.Implements(m) || pt.Implements(m) {
			unsupported("implements " + m.String())
		}
	}
	c := &bodyCodec{typ: t, kind: t.Kind()}
	building[t] = c
	switch t.Kind() {
	case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint32:
	case reflect.Slice:
		if t.Elem().Kind() != reflect.Uint8 {
			c.elem = buildCodec(t.Elem(), where+"[]", building)
		} else if t.Elem() != reflect.TypeFor[byte]() {
			unsupported("element type " + t.Elem().String())
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			at := where + "." + f.Name
			switch {
			case f.Anonymous:
				panic(fmt.Sprintf("rpcsim: %s: unsupported wire type %s: embedded field", at, t))
			case !f.IsExported():
				continue
			case f.Tag != "":
				panic(fmt.Sprintf("rpcsim: %s: unsupported wire type %s: tagged field", at, t))
			}
			c.fields = append(c.fields, fieldCodec{
				index: i,
				key:   `"` + f.Name + `":`, // an identifier needs no escapes
				codec: buildCodec(f.Type, at, building),
			})
		}
	default:
		unsupported("kind " + t.Kind().String())
	}
	return c
}

// encode appends v's JSON to b: json.Marshal's bytes.
func (c *bodyCodec) encode(b []byte, v reflect.Value) []byte {
	switch c.kind {
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Bool:
		if v.Bool() {
			return append(b, "true"...)
		}
		return append(b, "false"...)
	case reflect.Int, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint32:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...)
		}
		if c.elem == nil {
			b = base64.StdEncoding.AppendEncode(append(b, '"'), v.Bytes())
			return append(b, '"')
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = c.elem.encode(b, v.Index(i))
		}
		return append(b, ']')
	default: // reflect.Struct
		b = append(b, '{')
		for i := range c.fields {
			f := &c.fields[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.key...)
			b = f.codec.encode(b, v.Field(f.index))
		}
		return append(b, '}')
	}
}

const hexDigits = "0123456789abcdef"

// appendString writes s quoted as json.Marshal does, HTML escapes
// included.
func appendString(b []byte, s string) []byte {
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
			case '"', '\\':
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
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// decode parses the canonical JSON of one value from data[i:] into v,
// which is addressable and zero. It returns the index past the value, and
// false when the input is not canonical; v is then partly written.
func (c *bodyCodec) decode(data []byte, i int, v reflect.Value) (int, bool) {
	switch c.kind {
	case reflect.String:
		s, j, ok := scanString(data, i)
		if ok {
			v.SetString(s)
		}
		return j, ok
	case reflect.Bool:
		if hasPrefixAt(data, i, "true") {
			v.SetBool(true)
			return i + 4, true
		}
		return i + 5, hasPrefixAt(data, i, "false")
	case reflect.Int, reflect.Int64:
		n, j, ok := scanInt(data, i, c.typ.Bits())
		if ok {
			v.SetInt(n)
		}
		return j, ok
	case reflect.Uint32:
		n, j, ok := scanDigits(data, i)
		if !ok || n > 1<<32-1 {
			return j, false
		}
		v.SetUint(n)
		return j, true
	case reflect.Slice:
		if hasPrefixAt(data, i, "null") {
			return i + 4, true
		}
		if c.elem == nil {
			return scanBase64(data, i, v)
		}
		if i >= len(data) || data[i] != '[' {
			return i, false
		}
		i++
		if i < len(data) && data[i] == ']' {
			v.Set(reflect.MakeSlice(c.typ, 0, 0))
			return i + 1, true
		}
		for n := 0; ; n++ {
			if n > 0 {
				if i >= len(data) || data[i] != ',' {
					return i, false
				}
				i++
			}
			if n == v.Cap() {
				v.Grow(1)
			}
			v.SetLen(n + 1)
			var ok bool
			if i, ok = c.elem.decode(data, i, v.Index(n)); !ok {
				return i, false
			}
			if i < len(data) && data[i] == ']' {
				return i + 1, true
			}
		}
	default: // reflect.Struct
		if i >= len(data) || data[i] != '{' {
			return i, false
		}
		i++
		for k := range c.fields {
			f := &c.fields[k]
			if k > 0 {
				if i >= len(data) || data[i] != ',' {
					return i, false
				}
				i++
			}
			if !hasPrefixAt(data, i, f.key) {
				return i, false
			}
			var ok bool
			if i, ok = f.codec.decode(data, i+len(f.key), v.Field(f.index)); !ok {
				return i, false
			}
		}
		if i >= len(data) || data[i] != '}' {
			return i, false
		}
		return i + 1, true
	}
}

func hasPrefixAt(data []byte, i int, p string) bool {
	return len(data)-i >= len(p) && string(data[i:i+len(p)]) == p
}

// scanDigits reads a JSON integer without sign: 0, or a non-zero digit
// followed by digits, at most 19 of them so it cannot overflow.
func scanDigits(data []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for i < len(data) && data[i] >= '0' && data[i] <= '9' && i-start < 19 {
		n = n*10 + uint64(data[i]-'0')
		i++
	}
	switch {
	case i == start, data[start] == '0' && i-start > 1:
		return 0, i, false
	case i < len(data) && data[i] >= '0' && data[i] <= '9':
		return 0, i, false // too many digits: let json report the overflow
	}
	return n, i, true
}

// scanInt reads a JSON integer that fits in a signed integer of bits bits.
func scanInt(data []byte, i, bits int) (int64, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	u, i, ok := scanDigits(data, i)
	limit := uint64(1) << (bits - 1)
	switch {
	case !ok, neg && u > limit, !neg && u >= limit:
		return 0, i, false
	case neg:
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// scanString reads a JSON string: raw valid UTF-8 and the escapes
// json.Marshal writes. A surrogate escape or invalid UTF-8 is not
// canonical, so json decides what it means.
func scanString(data []byte, i int) (string, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return "", i, false
	}
	i++
	start := i
	var out []byte // the unescaped string so far, once there is an escape
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			if out == nil {
				return string(data[start:i]), i + 1, true
			}
			return string(append(out, data[start:i]...)), i + 1, true
		case c == '\\':
			if i+1 >= len(data) {
				return "", i, false
			}
			out = append(out, data[start:i]...)
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(data, i+2)
				if !ok || utf8.RuneLen(r) < 0 { // surrogate halves have no length
					return "", i, false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return "", i, false
			}
			i += 2
			start = i
		case c < 0x20:
			return "", i, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return "", i, false
			}
			i += size
		}
	}
	return "", i, false
}

func hex4(data []byte, i int) (rune, bool) {
	if len(data)-i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// scanBase64 reads a []byte written as a padded standard base64 string.
func scanBase64(data []byte, i int, v reflect.Value) (int, bool) {
	if i >= len(data) || data[i] != '"' {
		return i, false
	}
	i++
	start := i
	for i < len(data) && data[i] != '"' {
		c := data[i]
		if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '+' || c == '/' || c == '=') {
			return i, false
		}
		i++
	}
	if i >= len(data) {
		return i, false
	}
	src := data[start:i]
	b := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
	n, err := base64.StdEncoding.Decode(b, src)
	if err != nil {
		return i, false
	}
	v.SetBytes(b[:n])
	return i + 1, true
}

// appendBody appends v's body to b.
func appendBody[T any](b []byte, v *T) []byte {
	return codecFor(reflect.TypeFor[T]()).encode(b, reflect.ValueOf(v).Elem())
}

// decodeBody parses data into *v, which is zero, as json.Unmarshal would.
func decodeBody[T any](data []byte, v *T) error {
	rv := reflect.ValueOf(v).Elem()
	if i, ok := codecFor(reflect.TypeFor[T]()).decode(data, 0, rv); ok && i == len(data) {
		return nil
	}
	// Not canonical: json decides, from a zero value. It decodes into a
	// value of its own so that v stays off the heap on the fast path.
	ref := new(T)
	err := json.Unmarshal(data, ref)
	*v = *ref
	return err
}
