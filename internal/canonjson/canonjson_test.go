package canonjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

type (
	kinds struct {
		S     string         `json:"s"`
		B     bool           `json:"b,omitempty"`
		I8    int8           `json:"i8,omitempty"`
		I16   int16          `json:"i16"`
		I32   int32          `json:"i32,omitempty"`
		I64   int64          `json:"i64,omitempty"`
		I     int            `json:",omitempty"`
		U8    uint8          `json:"u8,omitempty"`
		U16   uint16         `json:"u16"`
		U32   uint32         `json:"u32,omitempty"`
		U64   uint64         `json:"u64,omitempty"`
		UP    uintptr        `json:"up,omitempty"`
		F32   float32        `json:"f32,omitempty"`
		F64   float64        `json:"f64"`
		Raw   []byte         `json:"raw,omitempty"`
		Strs  []string       `json:"strs"`
		Inner *inner         `json:"inner,omitempty"`
		Ptrs  []*inner       `json:"ptrs,omitempty"`
		Attrs map[string]any `json:"attrs,omitempty"`
		Sets  map[string]map[string]bool
		Named map[string]named  `json:"named,omitempty"`
		Str   map[string]string `json:"str,omitempty"`
		Any   any               `json:"any"`
		JSON  json.RawMessage   `json:"json,omitempty"`
		Skip  int               `json:"-"`
		Dash  int               `json:"-,"`
		hide  int
	}
	inner struct {
		ID   int64
		Next *inner `json:"next,omitempty"`
	}
	named  int
	myText string
)

func (m myText) MarshalJSON() ([]byte, error) { return json.Marshal("text:" + string(m)) }

// floats json formats in every way it has: 'f', 'e' at both ends, the
// exponent clean-up, signed zero, the extremes.
var floats = []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, 9.99e-7, 1e-7, 1e20,
	1e21, 1.5e300, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1 << 53, 3.0000000000000004}

func TestEncodeIsMarshal(t *testing.T) {
	t.Parallel()
	vals := []kinds{
		{},
		{S: "<a href=\"x\">&amp;</a>\u2028\u2029\xff\x00\x1f\t\n", B: true, I8: -128, I16: 32767, I32: -1 << 31,
			I64: math.MinInt64, I: -1, U8: 255, U16: 65535, U32: math.MaxUint32, U64: math.MaxUint64, UP: 7,
			F32: 3.4e38, F64: -0.5, Raw: []byte{0, 1, 0xff}, Strs: []string{}, Skip: 1, Dash: 2, hide: 3},
		{Inner: &inner{ID: 1, Next: &inner{ID: 2}}, Ptrs: []*inner{nil, {ID: 3}}, Raw: []byte{},
			Attrs: map[string]any{"s": "x", "i": int64(3), "f": 1.5, "b": true, "n": nil, "u8": uint8(9),
				"f32": float32(0.1), "named": named(4), "text": myText("t"), "list": []int{1, 2}, "<": "&"},
			Sets:  map[string]map[string]bool{"Node": {"b": true, "a": false}, "": nil, "\u00e9": {}},
			Named: map[string]named{"z": 1, "a": 2}, Str: map[string]string{"k": "v", "K": "w"},
			Any: myText("top")},
		{Any: 1.0}, {Any: int64(-3)}, {Any: "s"}, {Any: false}, {Any: map[string]any{"deep": []any{1}}},
		{Attrs: map[string]any{}, Str: map[string]string{}, Sets: map[string]map[string]bool{}},
		// Raw values: verbatim when compact and plain, else compacted and
		// escaped as json does.
		{JSON: json.RawMessage(`{"a":[1,{"b":null}],"c":"x\\\"y","d":-1.5e300}`)},
		{JSON: json.RawMessage(`9007199254740993`)}, {JSON: json.RawMessage(`"\u003c"`)},
		{JSON: json.RawMessage(` { "a" : [ 1 , 2 ] }` + "\n")}, {JSON: json.RawMessage(`"<a> & b\u2028"`)},
		{JSON: json.RawMessage("\"\u2028\u2029\"")}, {JSON: json.RawMessage(`"a b\\"`)},
	}
	for _, f := range floats {
		vals = append(vals, kinds{F64: f, Any: f}, kinds{F64: -f, Attrs: map[string]any{"f": -f}})
		if math.Abs(f) <= math.MaxFloat32 {
			vals = append(vals, kinds{F32: float32(f), Any: float32(f)})
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		f32 := math.Float32frombits(r.Uint32())
		if g := float64(f32); math.IsNaN(g) || math.IsInf(g, 0) {
			f32 = 0
		}
		vals = append(vals, kinds{F64: f, F32: f32, Any: r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))})
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Append(nil, &v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Append = %s, %v\njson gives %s", got, err, want)
		}
	}
}

func TestEncodeRefusesWhatJSONRefuses(t *testing.T) {
	t.Parallel()
	type withF32 struct{ F float32 }
	for _, v := range []any{
		&kinds{F64: math.NaN()}, &kinds{F64: math.Inf(-1)}, &kinds{Any: math.Inf(1)},
		&kinds{Attrs: map[string]any{"p": math.NaN()}}, &kinds{Any: func() {}}, &withF32{F: float32(math.Inf(1))},
		&kinds{JSON: json.RawMessage(`{"a":}`)}, &kinds{JSON: json.RawMessage(`1 2`)},
	} {
		_, wantErr := json.Marshal(v)
		var err error
		switch v := v.(type) {
		case *kinds:
			_, err = Append(nil, v)
		case *withF32:
			_, err = Append(nil, v)
		}
		if wantErr == nil || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("Append(%+v) error %v, json gives %v", v, err, wantErr)
		}
	}
}

// decodeLikeJSON checks Decode against json.Unmarshal on data, and reports
// whether the fast path took it.
func decodeLikeJSON[T any](t *testing.T, data string) bool {
	t.Helper()
	var got, want T
	gotErr, wantErr := Decode([]byte(data), &got, new(Interner)), json.Unmarshal([]byte(data), &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%s) = %+v, %v\njson gives %+v, %v", data, got, gotErr, want, wantErr)
	}
	var fast T
	return Fast([]byte(data), &fast, nil)
}

func TestDecodeIsUnmarshal(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		data string
		fast bool
	}{
		{`{"s":"x","i16":1,"u16":2,"f64":1.5,"strs":null,"Sets":null,"any":null}`, true},
		{`{"s":"a\"\\\/\b\f\n\r\t\u00e9\u2028","f64":-0,"any":"<"}`, true},
		{`{"f64":1e-7,"any":12345678901234567890}`, true},
		{`{"raw":"","strs":[],"attrs":{},"Sets":{}}`, true},
		{`{"raw":"AAEC/w==","inner":{"ID":1,"next":{"ID":2}},"ptrs":[null,{"ID":3}]}`, true},
		{`{"attrs":{"b":true,"f":-2.5e-3,"n":null,"s":"x"},"Sets":{"Node":{"a":true}},"named":{"k":3}}`, true},
		{`{"attrs":{"s":"x","s":"y"},"str":{"b":"1","a":"2"}}`, true}, // json keeps the last, in any order
		{`{}`, true},
		// A raw value is its exact bytes, whatever valid JSON they hold.
		{`{"json":{"b":[1,{"c":null}],"a":"x\"y","a":1e400,"e":[],"f":{}}}`, true},
		{`{"json":null}`, true},
		{`{"json":-0.5E+7}`, true},
		{`{"json":[true,false,"\u00e9","\ud83d"]}`, true},
		{`{"json":{"a" : 1}}`, true},
		{`{"json":"\"}"}`, true},
		{`{"json":1 }`, false},
		{`{"json":{"a":1,}}`, false},
		{`{"json":[1,]}`, false},
		{`{"json":{1:2}}`, false},
		{`{"json":"a}`, false},
		{`{"json":tru}`, false},
		{`{"json":01}`, false},
		{`{"json":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, false}, // past json's depth
		{`null`, false}, // the value stays zero, but json decides
		{`{"s":"x" }`, false},
		{`{"i16":1,"s":"x"}`, false},
		{`{"S":"x"}`, false},
		{`{"unknown":1}`, false},
		{`{"s":"x","s":"y"}`, false},
		{`{"s":"x","S":"y"}`, false},
		{`{"strs":[],"raw":""}`, false},
		{`{"s":"\ud83d\ude00"}`, false},
		{"{\"s\":\"\xff\"}", false},
		{`{"i16":1.0}`, false},
		{`{"i16":40000}`, false},
		{`{"u16":-1}`, false},
		{`{"u64":18446744073709551615}`, false},
		{`{"f64":1e400}`, false},
		{`{"f64":01}`, false},
		{`{"f64":.5}`, false},
		// An any holds arrays and objects as json decodes them.
		{`{"attrs":{"o":{},"l":[1,{"x":null,"y":[]}]},"any":[1,"a",[true]]}`, true},
		{`{"any":{"k":{"k":[{}]}}}`, true},
		{`{"any":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`, true},
		{`{"any":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, false}, // past json's depth
		{`{"attrs":{"o":{"a":1,}}}`, false},
		{`{"any":[1,]}`, false},
		{`{"raw":[1,2]}`, false},
		{`{"strs":[1]}`, false},
		{`{"strs":["a",]}`, false},
		{`{"strs":["a"`, false},
		{`{"s":"x"}x`, false},
		{`{"inner":{"ID":1}`, false},
		{``, false},
	} {
		if fast := decodeLikeJSON[kinds](t, c.data); fast != c.fast {
			t.Errorf("fast path on %s: %v, want %v", c.data, fast, c.fast)
		}
	}
	for _, data := range []string{`[]`, `[1,-2]`, `null`, `[1,[2]]`, `[[],[1]]`} {
		decodeLikeJSON[[]int](t, data)
		decodeLikeJSON[[][]int](t, data)
		decodeLikeJSON[any](t, data)
	}
}

// A decoded value shares no byte with its input, and the strings decoded
// through one interner are shared between values.
func TestDecodeKeepsNoInputAndInterns(t *testing.T) {
	t.Parallel()
	frame := `{"s":"alpha","strs":["beta","alpha"],"attrs":{"gamma":"delta"},"any":"eps","json":{"zeta":1}}`
	buf := []byte(frame)
	in := new(Interner)
	var first, second kinds
	if err := Decode(buf, &first, in); err != nil {
		t.Fatal(err)
	}
	want := first
	copy(buf, strings.Repeat("#", len(buf)))
	if !reflect.DeepEqual(first, want) || first.S != "alpha" || first.Attrs["gamma"] != "delta" || first.Any != "eps" ||
		string(first.JSON) != `{"zeta":1}` {
		t.Fatalf("overwriting the input changed the value: %+v", first)
	}
	copy(buf, frame)
	if err := Decode(buf, &second, in); err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(first.S, second.S) || !same(first.S, first.Strs[1]) || !same(first.Strs[0], second.Strs[0]) {
		t.Fatal("strings decoded through one interner are not shared")
	}
	for i := 0; i < maxInterned+10; i++ {
		in.str([]byte(fmt.Sprint(i)))
	}
	if len(in.m) != maxInterned {
		t.Fatalf("interner holds %d texts, want the cap %d", len(in.m), maxInterned)
	}
}

// Decoding allocates what the value keeps, once: a slice at its final
// length, no string the interner already holds.
func TestDecodeAllocatesOnce(t *testing.T) {
	type frame struct {
		Name  string
		IDs   []int64
		Spans []inner
	}
	data := []byte(`{"Name":"worker","IDs":[1,2,3,4,5,6,7],"Spans":[{"ID":1},{"ID":2},{"ID":3}]}`)
	in := new(Interner)
	var v frame
	if err := Decode(data, &v, in); err != nil {
		t.Fatal(err)
	}
	if len(v.IDs) != 7 || cap(v.IDs) != 8 || cap(v.Spans) != 3 { // 56 bytes round to a 64-byte class
		t.Fatalf("slices decoded with capacities %d and %d", cap(v.IDs), cap(v.Spans))
	}
	if n := testing.AllocsPerRun(100, func() {
		var v frame
		if !Fast(data, &v, in) {
			t.Fatal("the fast path declined")
		}
	}); n != 3 {
		t.Fatalf("a decode with warm strings allocates %v times, want 3: the value, which reflect's writes move to the heap, and its two slices", n)
	}
}

func TestUnsupportedTypesPanic(t *testing.T) {
	t.Parallel()
	type (
		ptrInt   struct{ P *int }
		intKeys  struct{ M map[int]string }
		iface    struct{ E error }
		embedded struct{ inner }
		option   struct {
			N int `json:"n,string"`
		}
		badName struct {
			N int `json:"a b"`
		}
		custom  struct{ T myText }
		octets  struct{ B []named8 }
		nested  struct{ In []ptrInt }
		channel struct{ C chan int }
	)
	for _, c := range []struct {
		prepare func()
		want    string
	}{
		{Prepare[ptrInt], "canonjson.ptrInt.P: unsupported wire type *int"},
		{Prepare[intKeys], "canonjson.intKeys.M: unsupported wire type map[int]string"},
		{Prepare[iface], "canonjson.iface.E: unsupported wire type error"},
		{Prepare[embedded], "canonjson.embedded.inner: unsupported wire type canonjson.embedded: embedded field"},
		{Prepare[option], "canonjson.option.N: unsupported wire type canonjson.option: tag option string"},
		{func() {
			// Built here, as vet refuses the declaration.
			planFor(reflect.StructOf([]reflect.StructField{
				{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
				{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"x"`},
			}))
		}, ".B: unsupported wire type struct"},
		{Prepare[badName], "canonjson.badName.N: unsupported wire type canonjson.badName: tag name a b"},
		{Prepare[custom], "canonjson.custom.T: unsupported wire type canonjson.myText: implements json.Marshaler"},
		{Prepare[octets], "canonjson.octets.B: unsupported wire type []canonjson.named8"},
		{Prepare[nested], "canonjson.nested.In[].P: unsupported wire type *int"},
		{Prepare[channel], "canonjson.channel.C: unsupported wire type chan int"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want it to contain %q", msg, c.want)
				}
			}()
			c.prepare()
		}()
	}
}

type named8 uint8

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// An Indenter stops at its writer's first error and returns it from then
// on.
func TestIndenterStopsAtWriteError(t *testing.T) {
	t.Parallel()
	full := errors.New("disk full")
	x := NewIndenter(failingWriter{full})
	doc := []byte(`[` + strings.Repeat(`{"a":[1,"b"]},`, 2000) + `{}]`)
	if n, err := x.Write(doc); err != full || n == 0 || n >= len(doc) {
		t.Fatalf("Write of %d bytes = %d, %v; want it to stop past 0 at %v", len(doc), n, err, full)
	}
	if n, err := x.Write([]byte(`1`)); n != 0 || err != full {
		t.Fatalf("a later Write = %d, %v", n, err)
	}
	if err := x.Flush(); err != full {
		t.Fatalf("Flush = %v", err)
	}
}
