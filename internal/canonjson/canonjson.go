// Package canonjson is the repository's one codec for JSON a program both
// writes and reads back: RPC bodies of the simulated systems
// (internal/rpcsim), the frames of the coordinator↔worker protocol and the
// records of the checkpoint journal (internal/core/dist), trace spans
// (internal/obs) and the entries of the disk cache (internal/core/diskcache).
// Its Indenter lays out, as it streams, the indented documents the
// program writes for people and tools: the campaign results and the
// coverage index.
//
// For each Go type it builds, once, a plan from reflect. Append follows the
// plan to write exactly the bytes json.Marshal writes. Decode follows it to
// parse the canonical form of those bytes — fields in declared order, exact
// names, no whitespace — straight into the value; any other input, and any
// input that is not valid JSON, is handed to encoding/json.Unmarshal on a
// zero value, so every input decodes exactly as json.Unmarshal decodes it,
// value and error text alike. Bytes therefore never move: a peer or a file
// written with encoding/json reads the same, and the other way round.
//
// The fast path allocates only what the decoded value keeps, once: a slice
// or map is made at its final size (its elements are counted first), and
// strings go through the caller's Interner. No decoded value aliases the
// input, so a caller may reuse its read buffer at once.
//
// The supported set is closed:
//
//   - string, bool, every int and uint width, float32 and float64 (json's
//     choice of 'f' or 'e' format; NaN and ±Inf are refused, as json
//     refuses them);
//   - []byte (base64), slices of supported types;
//   - structs, with json tags: a name, omitempty and "-" (unexported fields
//     are skipped, as json skips them);
//   - pointers to structs;
//   - map[string]V, keys sorted as json sorts them;
//   - any, holding a string, number, bool or nil. It decodes as json
//     decodes it, numbers becoming float64; any other dynamic value is
//     encoded by json.Marshal, and decoded by the fallback;
//   - json.RawMessage. It decodes, on the fast path too, to a copy of the
//     exact bytes of any valid value, as json keeps them, and encodes as
//     json.Marshal encodes it: the bytes themselves when they are already
//     compact with nothing to escape.
//
// A type outside the set, or one that brings its own JSON or text coding,
// panics when its plan is built.
package canonjson

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// Append appends v's JSON to b: json.Marshal's bytes. Its errors are
// json.Marshal's: a NaN or infinite float, or an error from json.Marshal on
// a value held by an any that is outside the supported set.
func Append[T any](b []byte, v *T) ([]byte, error) {
	return planFor(reflect.TypeFor[T]()).encode(b, reflect.ValueOf(v).Elem())
}

// Decode parses data into *v, which is zero, as json.Unmarshal would. The
// strings of the value are drawn from in, which may be nil.
func Decode[T any](data []byte, v *T, in *Interner) error {
	if Fast(data, v, in) {
		return nil
	}
	// Not canonical: json decides, from a zero value.
	var zero T
	*v = zero
	return json.Unmarshal(data, v)
}

// Fast decodes data into *v, which is zero, only if data is in the
// canonical form; it reports false, leaving *v partly written, for
// anything else. What it accepts it decodes as json.Unmarshal does.
func Fast[T any](data []byte, v *T, in *Interner) bool {
	d := decoder{data: data, in: in}
	i, ok := d.value(planFor(reflect.TypeFor[T]()), 0, reflect.ValueOf(v).Elem())
	return ok && i == len(data)
}

// Prepare builds T's plan now, so that a type outside the supported set
// panics where Prepare is called — at package initialisation, say —
// rather than at its first message.
func Prepare[T any]() {
	planFor(reflect.TypeFor[T]())
}

// Interner hands out one string per distinct text, so that the values
// decoded from many messages share their repeated names, labels and
// values. It is not safe for concurrent use: each reader owns one. The
// zero value is ready to use.
type Interner struct {
	m map[string]string
}

// maxInterned caps an Interner's table; past it, new texts are copied
// without being remembered.
const maxInterned = 1 << 14

// str returns b's text, shared with earlier calls where it can be.
func (in *Interner) str(b []byte) string {
	if in == nil {
		return string(b)
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string, 256)
	}
	if len(in.m) < maxInterned {
		in.m[s] = s
	}
	return s
}

// kind is what a plan does with a value.
type kind uint8

const (
	kString kind = iota
	kBool
	kInt
	kUint
	kFloat
	kBytes
	kSlice
	kStruct
	kPointer
	kMap
	kAny
	kRaw
)

// plan is the codec of one type.
type plan struct {
	typ    reflect.Type
	kind   kind
	bits   int   // kInt, kUint, kFloat: the width
	elem   *plan // kSlice, kMap: the element; kPointer: the struct
	fields []field
}

// field is one encoded struct field.
type field struct {
	index     int
	key       string // `"name":`
	omitEmpty bool
	plan      *plan
}

var (
	plansMu sync.Mutex
	plans   sync.Map // reflect.Type -> *plan, complete plans only
)

// planFor returns t's plan, building it on first use.
func planFor(t reflect.Type) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	building := make(map[reflect.Type]*plan)
	p := build(t, t.String(), building)
	for bt, bp := range building {
		plans.LoadOrStore(bt, bp)
	}
	return p
}

// customCoding lists the methods by which a type replaces json's coding
// of its kind; a type that has one is outside the supported set.
var customCoding = []reflect.Type{
	reflect.TypeFor[json.Marshaler](),
	reflect.TypeFor[json.Unmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](),
	reflect.TypeFor[encoding.TextUnmarshaler](),
}

// build plans t; where names t's position within the declared type, for
// the panic an unsupported type raises. building holds the plans under
// construction, so a recursive type refers to its own plan.
func build(t reflect.Type, where string, building map[reflect.Type]*plan) *plan {
	if p, ok := plans.Load(t); ok {
		return p.(*plan)
	}
	if p, ok := building[t]; ok {
		return p
	}
	unsupported := func(why string) {
		panic(fmt.Sprintf("canonjson: %s: unsupported wire type %s: %s", where, t, why))
	}
	if t == reflect.TypeFor[json.RawMessage]() {
		p := &plan{typ: t, kind: kRaw}
		building[t] = p
		return p
	}
	pt := reflect.PointerTo(t)
	for _, m := range customCoding {
		if t.Implements(m) || pt.Implements(m) {
			unsupported("implements " + m.String())
		}
	}
	p := &plan{typ: t}
	building[t] = p
	switch t.Kind() {
	case reflect.String:
		p.kind = kString
	case reflect.Bool:
		p.kind = kBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind, p.bits = kInt, t.Bits()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		p.kind, p.bits = kUint, t.Bits()
	case reflect.Float32, reflect.Float64:
		p.kind, p.bits = kFloat, t.Bits()
	case reflect.Slice:
		switch {
		case t.Elem() == reflect.TypeFor[byte]():
			p.kind = kBytes
		case t.Elem().Kind() == reflect.Uint8:
			unsupported("element type " + t.Elem().String())
		default:
			p.kind = kSlice
			p.elem = build(t.Elem(), where+"[]", building)
		}
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			unsupported("pointer to " + t.Elem().Kind().String())
		}
		p.kind = kPointer
		p.elem = build(t.Elem(), where, building)
	case reflect.Map:
		if t.Key() != reflect.TypeFor[string]() {
			unsupported("key type " + t.Key().String())
		}
		p.kind = kMap
		p.elem = build(t.Elem(), where+"[]", building)
	case reflect.Interface:
		if t.NumMethod() != 0 {
			unsupported("interface with methods")
		}
		p.kind = kAny
	case reflect.Struct:
		p.kind = kStruct
		p.fields = buildFields(t, where, building)
	default:
		unsupported("kind " + t.Kind().String())
	}
	return p
}

// buildFields plans the encoded fields of struct type t.
func buildFields(t reflect.Type, where string, building map[reflect.Type]*plan) []field {
	var fields []field
	seen := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		at := where + "." + f.Name
		bad := func(why string) {
			panic(fmt.Sprintf("canonjson: %s: unsupported wire type %s: %s", at, t, why))
		}
		switch {
		case f.Anonymous:
			bad("embedded field")
		case !f.IsExported():
			continue
		}
		tag, hasTag := f.Tag.Lookup("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		fd := field{index: i}
		for opts != "" {
			var o string
			o, opts, _ = strings.Cut(opts, ",")
			if o != "omitempty" {
				bad("tag option " + o)
			}
			fd.omitEmpty = true
		}
		if hasTag && !plainKey(name) {
			bad("tag name " + name)
		}
		if seen[name] {
			bad("two fields named " + name)
		}
		seen[name] = true
		fd.key = `"` + name + `":` // plainKey: no byte needs an escape
		fd.plan = build(f.Type, at, building)
		fields = append(fields, fd)
	}
	return fields
}

// plainKey reports whether name is a field name json writes as it is and
// matches only as it is: letters, digits, '_' and '-'.
func plainKey(name string) bool {
	for _, c := range []byte(name) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}
