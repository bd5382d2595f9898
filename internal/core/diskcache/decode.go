package diskcache

import (
	"math"
	"sync"

	"zebraconf/internal/core/memo"
)

// decodeEntry decodes an entry file in the exact form write produces —
// json.Marshal of a fileEntry and a newline: fields in declared order,
// omitempty fields left out, no whitespace — and reports whether data
// is that form and holds the key k. The key is compared in place, so a
// mismatch allocates nothing; the read set's names come from in.
//
// ok false means "declined", not "miss": any escape, any byte at or
// above 0x80, a leading zero, a duplicate, missing or reordered field,
// or any other deviation declines, and json.Unmarshal decides. When ok
// is true the result and creation time are what json.Unmarshal into a
// fileEntry gives (FuzzDecodeEntry holds it to that).
func decodeEntry(data []byte, k memo.Key, in *interner) (res memo.Result, created int64, ok bool) {
	d := scanner{b: data}
	if !(d.lit(`{"key":{"app":`) && d.strIs(k.App) &&
		d.lit(`,"test":`) && d.strIs(k.Test) &&
		d.lit(`,"assign":`) && d.strIs(k.Assign) &&
		d.lit(`,"seed":`) && d.intIs(k.Seed) &&
		d.lit(`},"result":{`)) {
		return memo.Result{}, 0, false
	}
	first := true
	if d.field("failed", first) {
		if !d.lit("true") {
			return memo.Result{}, 0, false
		}
		res.Failed, first = true, false
	}
	if d.field("timed_out", first) {
		if !d.lit("true") {
			return memo.Result{}, 0, false
		}
		res.TimedOut, first = true, false
	}
	if d.field("msg", first) {
		msg, ok := d.str()
		if !ok || len(msg) == 0 {
			return memo.Result{}, 0, false
		}
		res.Msg, first = string(msg), false
	}
	if d.field("reads", first) {
		if res.Reads, ok = d.reads(in); !ok {
			return memo.Result{}, 0, false
		}
	}
	if !d.lit(`},"created_unix":`) {
		return memo.Result{}, 0, false
	}
	if created, ok = d.int(); !ok || !d.lit("}\n") || d.i != len(d.b) {
		return memo.Result{}, 0, false
	}
	return res, created, true
}

// scanner is decodeEntry's cursor. lit and field consume nothing when
// they fail; after any other method fails, decodeEntry declines.
type scanner struct {
	b []byte
	i int
}

// lit consumes s.
func (d *scanner) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// field consumes `"name":`, after a comma unless it is the object's
// first field.
func (d *scanner) field(name string, first bool) bool {
	i := d.i
	if (first || d.lit(",")) && d.lit(`"`) && d.lit(name) && d.lit(`":`) {
		return true
	}
	d.i = i
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, which alias the input.
func (d *scanner) str() ([]byte, bool) {
	if !d.lit(`"`) {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// strIs consumes a string and reports whether it equals want.
func (d *scanner) strIs(want string) bool {
	s, ok := d.str()
	return ok && string(s) == want
}

// int consumes an integer as json.Marshal writes an int64: an optional
// minus, no leading zero, no "-0", and no value past the int64 range.
func (d *scanner) int() (int64, bool) {
	j := d.i
	neg := j < len(d.b) && d.b[j] == '-'
	if neg {
		j++
	}
	start := j
	var u uint64
	for ; j < len(d.b) && j-start < 19 && '0' <= d.b[j] && d.b[j] <= '9'; j++ {
		u = u*10 + uint64(d.b[j]-'0')
	}
	switch n := j - start; {
	case n == 0, n > 1 && d.b[start] == '0', neg && u == 0:
		return 0, false
	case j < len(d.b) && '0' <= d.b[j] && d.b[j] <= '9': // a twentieth digit
		return 0, false
	case neg && u > math.MaxInt64+1, !neg && u > math.MaxInt64:
		return 0, false
	}
	d.i = j
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// intIs consumes an integer and reports whether it equals want.
func (d *scanner) intIs(want int64) bool {
	v, ok := d.int()
	return ok && v == want
}

// reads consumes a non-empty array of strings, counting it before it
// allocates the one slice it returns.
func (d *scanner) reads(in *interner) ([]string, bool) {
	if !d.lit("[") {
		return nil, false
	}
	probe, n := *d, 0
	for {
		if _, ok := probe.str(); !ok {
			return nil, false
		}
		n++
		if probe.lit("]") {
			break
		}
		if !probe.lit(",") {
			return nil, false
		}
	}
	out := make([]string, n)
	for i := range out {
		s, _ := d.str()
		out[i] = in.intern(s)
		d.i++ // the comma, or the closing bracket
	}
	return out, true
}

// maxInterned caps an interner, so a directory of tampered entries
// cannot grow it without bound; past the cap a name is allocated per hit.
const maxInterned = 1 << 16

// interner hands out one copy of each read-set name, so the Reads of
// every hit share their strings instead of allocating them anew. The
// zero value is ready to use.
type interner struct {
	mu sync.RWMutex
	m  map[string]string
}

func (in *interner) intern(b []byte) string {
	in.mu.RLock()
	s, ok := in.m[string(b)]
	in.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	in.mu.Lock()
	if len(in.m) < maxInterned {
		if in.m == nil {
			in.m = make(map[string]string)
		}
		in.m[s] = s
	}
	in.mu.Unlock()
	return s
}
