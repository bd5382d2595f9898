package canonjson

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// encode appends v's JSON to b: json.Marshal's bytes.
func (p *plan) encode(b []byte, v reflect.Value) ([]byte, error) {
	switch p.kind {
	case kString:
		return appendString(b, v.String()), nil
	case kBool:
		return strconv.AppendBool(b, v.Bool()), nil
	case kInt:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case kUint:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case kFloat:
		return appendFloat(b, v.Float(), p.bits)
	case kBytes:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = base64.StdEncoding.AppendEncode(append(b, '"'), v.Bytes())
		return append(b, '"'), nil
	case kSlice:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = p.elem.encode(b, v.Index(i)); err != nil {
				return b, err
			}
		}
		return append(b, ']'), nil
	case kPointer:
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		return p.elem.encode(b, v.Elem())
	case kMap:
		return p.encodeMap(b, v)
	case kAny:
		// v is addressable (see encodeMap), and reading the interface
		// through its address, rather than by v.Elem or v.Interface,
		// keeps the variable v is part of off the heap.
		return appendAny(b, *(*any)(v.Addr().UnsafePointer()))
	case kRaw:
		return appendRaw(b, v.Bytes())
	default: // kStruct
		b = append(b, '{')
		first := true
		for i := range p.fields {
			f := &p.fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, f.key...)
			var err error
			if b, err = f.plan.encode(b, fv); err != nil {
				return b, err
			}
		}
		return append(b, '}'), nil
	}
}

// isEmpty is json's test for an omitempty field to be left out.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String, reflect.Slice, reflect.Map:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Pointer, reflect.Interface:
		return v.IsNil()
	}
	return false // a struct is never empty
}

// encodeMap writes a map with its keys in json's order. The common map
// types are walked natively, which copies no key or value.
func (p *plan) encodeMap(b []byte, v reflect.Value) ([]byte, error) {
	if v.IsNil() {
		return append(b, "null"...), nil
	}
	switch v.Type() {
	case reflect.TypeFor[map[string]any]():
		return appendMap(b, mapOf[map[string]any](v), appendAny)
	case reflect.TypeFor[map[string]string]():
		return appendMap(b, mapOf[map[string]string](v), func(b []byte, s string) ([]byte, error) { return appendString(b, s), nil })
	case reflect.TypeFor[map[string]int]():
		return appendMap(b, mapOf[map[string]int](v), func(b []byte, n int) ([]byte, error) { return strconv.AppendInt(b, int64(n), 10), nil })
	case reflect.TypeFor[map[string]bool]():
		return appendMap(b, mapOf[map[string]bool](v), func(b []byte, t bool) ([]byte, error) { return strconv.AppendBool(b, t), nil })
	}
	keys := v.MapKeys()
	slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
	// Values are encoded from an addressable copy, as every value
	// reaching encode is.
	val := reflect.New(p.elem.typ).Elem()
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, k.String()), ':')
		val.Set(v.MapIndex(k))
		var err error
		if b, err = p.elem.encode(b, val); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// mapOf returns the map v holds; M is v's type. A map value is one
// pointer, the one v.UnsafePointer returns. Reading it so, rather than by
// v.Interface, keeps the variable the map is stored in off the heap.
func mapOf[M any](v reflect.Value) M {
	p := v.UnsafePointer()
	return *(*M)(unsafe.Pointer(&p))
}

// appendMap writes m with its keys sorted, each value by elem.
func appendMap[V any](b []byte, m map[string]V, elem func([]byte, V) ([]byte, error)) ([]byte, error) {
	var small [16]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, k), ':')
		var err error
		if b, err = elem(b, m[k]); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func appendAny(b []byte, x any) ([]byte, error) {
	if x == nil {
		return append(b, "null"...), nil
	}
	return appendDynamic(b, reflect.ValueOf(x))
}

// appendDynamic writes the value an any holds: a string, bool or number
// of a predeclared type natively, anything else by json.Marshal.
func appendDynamic(b []byte, e reflect.Value) ([]byte, error) {
	if e.Type().PkgPath() == "" { // predeclared, or unnamed
		switch e.Kind() {
		case reflect.String:
			return appendString(b, e.String()), nil
		case reflect.Bool:
			return strconv.AppendBool(b, e.Bool()), nil
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return strconv.AppendInt(b, e.Int(), 10), nil
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			return strconv.AppendUint(b, e.Uint(), 10), nil
		case reflect.Float32, reflect.Float64:
			return appendFloat(b, e.Float(), e.Type().Bits())
		}
	}
	j, err := json.Marshal(e.Interface())
	if err != nil {
		return b, err
	}
	return append(b, j...), nil
}

// appendRaw writes a json.RawMessage as json.Marshal does: null for nil;
// the bytes themselves when they are valid JSON with no byte json.Marshal
// would compact away or escape (a space inside a string is one it keeps,
// but this test is cheap, and json.Marshal's bytes are exact either way);
// json.Marshal's bytes, or its error, otherwise.
func appendRaw(b, raw []byte) ([]byte, error) {
	if raw == nil {
		return append(b, "null"...), nil
	}
	if !bytes.ContainsAny(raw, " \t\r\n<>&\u2028\u2029") && json.Valid(raw) {
		return append(b, raw...), nil
	}
	// A copy, so that raw, which may be the caller's variable, does not
	// escape.
	j, err := json.Marshal(json.RawMessage(bytes.Clone(raw)))
	if err != nil {
		return b, err
	}
	return append(b, j...), nil
}

// appendFloat writes f as json writes a float of bits bits: 'f' format,
// 'e' for very small and very large magnitudes with a one-digit negative
// exponent unpadded. NaN and the infinities are refused with json's error.
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
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
