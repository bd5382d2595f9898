package canonjson

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decoder parses one input on the fast path.
type decoder struct {
	data []byte
	in   *Interner
	esc  []byte // the text of the current string, once it has an escape
	// depth counts the arrays and objects open around the current value:
	// one past json's limit of 10000 is not canonical. A parser that opens
	// one closes it by a decrement on success; a failure ends the parse.
	depth int
}

// open enters an array or object, and reports false past json's limit.
func (d *decoder) open() bool {
	d.depth++
	return d.depth <= 10000
}

// value parses the canonical JSON of one value from d.data[i:] into v,
// which is addressable and zero. It returns the index past the value, and
// false when the input is not canonical; v is then partly written.
func (d *decoder) value(p *plan, i int, v reflect.Value) (int, bool) {
	data := d.data
	switch p.kind {
	case kString:
		s, j, ok := d.str(i)
		if ok {
			v.SetString(s)
		}
		return j, ok
	case kBool:
		if hasPrefixAt(data, i, "true") {
			v.SetBool(true)
			return i + 4, true
		}
		return i + 5, hasPrefixAt(data, i, "false")
	case kInt:
		n, j, ok := scanInt(data, i, p.bits)
		if ok {
			v.SetInt(n)
		}
		return j, ok
	case kUint:
		n, j, ok := scanDigits(data, i)
		if !ok || p.bits < 64 && n >= 1<<p.bits {
			return j, false
		}
		v.SetUint(n)
		return j, true
	case kFloat:
		f, j, ok := scanFloat(data, i, p.bits)
		if ok {
			v.SetFloat(f)
		}
		return j, ok
	case kBytes:
		if hasPrefixAt(data, i, "null") {
			return i + 4, true
		}
		return scanBase64(data, i, v)
	case kSlice:
		return d.slice(p, i, v)
	case kPointer:
		if hasPrefixAt(data, i, "null") {
			return i + 4, true
		}
		e := reflect.New(p.elem.typ)
		j, ok := d.value(p.elem, i, e.Elem())
		if ok {
			v.Set(e)
		}
		return j, ok
	case kMap:
		return d.mapValue(p, i, v)
	case kAny:
		x, j, ok := d.anyValue(i)
		if ok && x != nil {
			v.Set(reflect.ValueOf(x))
		}
		return j, ok
	case kRaw:
		j, ok := rawEnd(data, i)
		if ok = ok && json.Valid(data[i:j]); ok {
			v.SetBytes(bytes.Clone(data[i:j]))
		}
		return j, ok
	default: // kStruct
		return d.structValue(p, i, v)
	}
}

// slice parses an array, made at its final length.
func (d *decoder) slice(p *plan, i int, v reflect.Value) (int, bool) {
	data := d.data
	if hasPrefixAt(data, i, "null") {
		return i + 4, true
	}
	n, _, ok := count(data, i, '[')
	if !ok || !d.open() {
		return i, false
	}
	if n == 0 {
		v.Set(reflect.MakeSlice(p.typ, 0, 0)) // json's [] is not nil
	} else {
		// Grown in place: v is nil, so this is the one allocation.
		v.Grow(n)
		v.SetLen(n)
	}
	i++
	for k := 0; k < n; k++ {
		if k > 0 {
			if i >= len(data) || data[i] != ',' {
				return i, false
			}
			i++
		}
		if i, ok = d.value(p.elem, i, v.Index(k)); !ok {
			return i, false
		}
	}
	if i >= len(data) || data[i] != ']' {
		return i, false
	}
	d.depth--
	return i + 1, true
}

// structValue parses an object whose keys are the fields' names, in
// declared order; a field may be absent.
func (d *decoder) structValue(p *plan, i int, v reflect.Value) (int, bool) {
	data := d.data
	if i >= len(data) || data[i] != '{' || !d.open() {
		return i, false
	}
	i++
	if i < len(data) && data[i] == '}' {
		d.depth--
		return i + 1, true
	}
	for k := 0; ; {
		for k < len(p.fields) && !hasPrefixAt(data, i, p.fields[k].key) {
			k++
		}
		if k == len(p.fields) {
			return i, false // a key out of order, unknown, repeated or escaped
		}
		f := &p.fields[k]
		k++
		var ok bool
		if i, ok = d.value(f.plan, i+len(f.key), v.Field(f.index)); !ok || i >= len(data) {
			return i, false
		}
		switch data[i] {
		case ',':
			i++
		case '}':
			d.depth--
			return i + 1, true
		default:
			return i, false
		}
	}
}

// mapValue parses an object into a map made at its final size.
func (d *decoder) mapValue(p *plan, i int, v reflect.Value) (int, bool) {
	data := d.data
	if hasPrefixAt(data, i, "null") {
		return i + 4, true
	}
	n, _, ok := count(data, i, '{')
	if !ok || !d.open() {
		return i, false
	}
	i++
	if p.elem.kind == kAny && p.typ == reflect.TypeFor[map[string]any]() {
		// Span attributes: the common case, with no reflect per entry.
		m := make(map[string]any, n)
		for k := 0; k < n; k++ {
			var key string
			if i, ok = d.member(k, i, &key); !ok {
				return i, false
			}
			var x any
			if x, i, ok = d.anyValue(i); !ok {
				return i, false
			}
			m[key] = x
		}
		if i >= len(data) || data[i] != '}' {
			return i, false
		}
		d.depth--
		v.Set(reflect.ValueOf(m))
		return i + 1, true
	}
	m := reflect.MakeMapWithSize(p.typ, n)
	key := reflect.New(p.typ.Key()).Elem()
	val := reflect.New(p.elem.typ).Elem()
	for k := 0; k < n; k++ {
		var s string
		if i, ok = d.member(k, i, &s); !ok {
			return i, false
		}
		val.SetZero()
		if i, ok = d.value(p.elem, i, val); !ok {
			return i, false
		}
		key.SetString(s)
		m.SetMapIndex(key, val)
	}
	if i >= len(data) || data[i] != '}' {
		return i, false
	}
	d.depth--
	v.Set(m)
	return i + 1, true
}

// member parses the separator before the k-th member of an object, and
// its key; it returns the index of the value.
func (d *decoder) member(k, i int, key *string) (int, bool) {
	data := d.data
	if k > 0 {
		if i >= len(data) || data[i] != ',' {
			return i, false
		}
		i++
	}
	s, i, ok := d.str(i)
	if !ok || i >= len(data) || data[i] != ':' {
		return i, false
	}
	*key = s
	return i + 1, true
}

// The plans of the arrays and objects an any holds.
var anyList, anyMap = planFor(reflect.TypeFor[[]any]()), planFor(reflect.TypeFor[map[string]any]())

// anyValue parses the value of an any as json decodes it: a string,
// float64, bool, nil, []any or map[string]any.
func (d *decoder) anyValue(i int) (any, int, bool) {
	data := d.data
	if i >= len(data) {
		return nil, i, false
	}
	switch c := data[i]; {
	case c == '[':
		var l []any
		j, ok := d.slice(anyList, i, reflect.ValueOf(&l).Elem())
		return l, j, ok
	case c == '{':
		var m map[string]any
		j, ok := d.mapValue(anyMap, i, reflect.ValueOf(&m).Elem())
		return m, j, ok
	case c == '"':
		s, j, ok := d.str(i)
		if !ok {
			return nil, j, false
		}
		return s, j, true
	case c == '-' || '0' <= c && c <= '9':
		f, j, ok := scanFloat(data, i, 64)
		if !ok {
			return nil, j, false
		}
		return f, j, true
	case hasPrefixAt(data, i, "true"):
		return true, i + 4, true
	case hasPrefixAt(data, i, "false"):
		return false, i + 5, true
	case hasPrefixAt(data, i, "null"):
		return nil, i + 4, true
	}
	return nil, i, false
}

// str reads a JSON string and returns its text from the interner.
func (d *decoder) str(i int) (string, int, bool) {
	b, j, ok := d.text(i)
	if !ok {
		return "", j, false
	}
	return d.in.str(b), j, true
}

// text reads a JSON string: raw valid UTF-8 and the escapes json.Marshal
// writes. A surrogate escape or invalid UTF-8 is not canonical, so json
// decides what it means. The text is a slice of the input, or of d.esc
// when the string has an escape; either is only valid until the next call.
func (d *decoder) text(i int) ([]byte, int, bool) {
	data := d.data
	if i >= len(data) || data[i] != '"' {
		return nil, i, false
	}
	i++
	start := i
	escaped := false
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			if !escaped {
				return data[start:i], i + 1, true
			}
			d.esc = append(d.esc, data[start:i]...)
			return d.esc, i + 1, true
		case c == '\\':
			if i+1 >= len(data) {
				return nil, i, false
			}
			if !escaped {
				escaped = true
				d.esc = d.esc[:0]
			}
			d.esc = append(d.esc, data[start:i]...)
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				d.esc = append(d.esc, e)
			case 'b':
				d.esc = append(d.esc, '\b')
			case 'f':
				d.esc = append(d.esc, '\f')
			case 'n':
				d.esc = append(d.esc, '\n')
			case 'r':
				d.esc = append(d.esc, '\r')
			case 't':
				d.esc = append(d.esc, '\t')
			case 'u':
				r, ok := hex4(data, i+2)
				if !ok || utf8.RuneLen(r) < 0 { // surrogate halves have no length
					return nil, i, false
				}
				d.esc = utf8.AppendRune(d.esc, r)
				i += 4
			default:
				return nil, i, false
			}
			i += 2
			start = i
		case c < 0x20:
			return nil, i, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, i, false
			}
			i += size
		}
	}
	return nil, i, false
}

// count returns the number of elements of the array, or members of the
// object, that opens with open at data[i], and the index past it. It only
// tracks brackets and strings; the parse that follows checks the syntax.
func count(data []byte, i int, open byte) (n, end int, ok bool) {
	if i >= len(data) || data[i] != open {
		return 0, i, false
	}
	if i+1 < len(data) && (data[i+1] == ']' || data[i+1] == '}') {
		return 0, i + 2, true
	}
	n, depth := 1, 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			if i, ok = closeQuote(data, i); !ok {
				return 0, i, false
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth--; depth == 0 {
				return n, i + 1, true
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return 0, i, false
}

// closeQuote returns the index of the quote that closes the string
// opening at data[i].
func closeQuote(data []byte, i int) (int, bool) {
	for {
		j := bytes.IndexByte(data[i+1:], '"')
		if j < 0 {
			return i, false
		}
		i += 1 + j
		// The quote closes the string unless an odd number of
		// backslashes precede it; the opening quote bounds the walk.
		k := i - 1
		for data[k] == '\\' {
			k--
		}
		if (i-1-k)%2 == 0 {
			return i, true
		}
	}
}

// rawEnd returns the index past the JSON value that starts at data[i]:
// past its closing bracket or quote, or at the first byte that cannot go
// on a number or literal. Whether the value is valid is json.Valid's to
// say.
func rawEnd(data []byte, i int) (int, bool) {
	if i >= len(data) {
		return i, false
	}
	switch c := data[i]; c {
	case '{', '[':
		_, end, ok := count(data, i, c)
		return end, ok
	case '"':
		j, ok := closeQuote(data, i)
		return j + 1, ok
	}
	j := i
	for j < len(data) && strings.IndexByte(",]} \t\r\n", data[j]) < 0 {
		j++
	}
	return j, j > i
}

func hasPrefixAt(data []byte, i int, p string) bool {
	return len(data)-i >= len(p) && string(data[i:i+len(p)]) == p
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanDigits reads a JSON integer without sign: 0, or a non-zero digit
// followed by digits, at most 19 of them so it cannot overflow.
func scanDigits(data []byte, i int) (uint64, int, bool) {
	start := i
	var n uint64
	for i < len(data) && isDigit(data[i]) && i-start < 19 {
		n = n*10 + uint64(data[i]-'0')
		i++
	}
	switch {
	case i == start, data[start] == '0' && i-start > 1:
		return 0, i, false
	case i < len(data) && isDigit(data[i]):
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

// scanFloat reads a JSON number as json reads it into a float of bits
// bits; one out of range is left to json, which reports it.
func scanFloat(data []byte, i, bits int) (float64, int, bool) {
	start := i
	if i < len(data) && data[i] == '-' {
		i++
	}
	digits := func() bool {
		if i >= len(data) || !isDigit(data[i]) {
			return false
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		return true
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return 0, i, false
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return 0, i, false
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return 0, i, false
		}
	}
	f, err := strconv.ParseFloat(string(data[start:i]), bits)
	return f, i, err == nil
}

func hex4(data []byte, i int) (rune, bool) {
	if len(data)-i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case isDigit(c):
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
		if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || isDigit(c) || c == '+' || c == '/' || c == '=') {
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
