package diskcache

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"zebraconf/internal/core/memo"
)

// FuzzDecodeEntry holds the fast decoder to encoding/json: on any bytes
// and any key, decodeEntry either declines or returns exactly what
// json.Unmarshal into a fileEntry returns when the stored key equals the
// requested one. It never hits where json misses, and it never declines
// what write itself produces from ASCII without escapes.
func FuzzDecodeEntry(f *testing.F) {
	entries := []fileEntry{
		{Key: memo.Key{App: "minihdfs", Test: "TestWriteRead", Assign: "0123456789abcdef", Seed: 7}, Created: 1700000000},
		{Key: memo.Key{App: "minihdfs", Test: "TestFsck", Assign: "a", Seed: 0},
			Result: memo.Result{Failed: true}, Created: 1},
		{Key: memo.Key{App: "miniyarn", Test: "TestNodeHeartbeat", Assign: "b", Seed: -42},
			Result: memo.Result{TimedOut: true, Msg: "timed out"}, Created: -5},
		{Key: memo.Key{App: "minimr", Test: "TestShuffle", Assign: "c", Seed: math.MaxInt64},
			Result: memo.Result{Failed: true, TimedOut: true, Msg: "m", Reads: []string{"x.y"}}, Created: math.MaxInt64},
		{Key: memo.Key{App: "minimr", Test: "TestShuffle", Assign: "", Seed: math.MinInt64},
			Result: memo.Result{Reads: []string{"mapreduce.a", "mapreduce.b", "mapreduce.a"}}, Created: math.MinInt64},
		{Key: benchKey, Result: benchResult, Created: 1792258379},
		{Key: memo.Key{App: "miniflink", Test: "TestJobSubmission", Assign: "d", Seed: 1},
			Result: memo.Result{Failed: true, Msg: "say \"no\" to <b> & \n next", Reads: []string{"r"}}, Created: 9},
		{Key: memo.Key{App: "miniflink", Test: "TestÜberprüfung/日本", Assign: "e", Seed: 2},
			Result: memo.Result{Msg: "ok"}, Created: 10},
	}
	for _, fe := range entries {
		data, err := json.Marshal(fe)
		if err != nil {
			f.Fatal(err)
		}
		data = append(data, '\n')
		k := fe.Key
		f.Add(data, k.App, k.Test, k.Assign, k.Seed)
		f.Add(data[:len(data)/2], k.App, k.Test, k.Assign, k.Seed) // truncated
		f.Add(data, k.App, k.Test, k.Assign, k.Seed+1)             // another key
	}
	// Hand-written entries json.Unmarshal reads but write never produces,
	// or json.Unmarshal refuses, for the key {a t x seed}.
	for _, c := range []struct {
		data string
		seed int64
	}{
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1},"result":{},"created_unix":9223372036854775808}`, 1},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":-9223372036854775809},"result":{},"created_unix":1}`, math.MaxInt64},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":-0},"result":{},"created_unix":1}`, 0},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1},"result":{"msg":"a\u003cb"},"created_unix":1}`, 1},
		{`{"key":{"app":"a","test":"t","assign":"x","seed":1}, "result":{"failed":false},"created_unix":1}`, 1},
	} {
		f.Add([]byte(c.data+"\n"), "a", "t", "x", c.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte, app, test, assign string, seed int64) {
		k := memo.Key{App: app, Test: test, Assign: assign, Seed: seed}
		var in interner
		res, created, ok := decodeEntry(data, k, &in)
		var fe fileEntry
		jsonHit := json.Unmarshal(data, &fe) == nil && fe.Key == k
		switch {
		case ok && !jsonHit:
			t.Fatalf("fast path hit where json misses: %q", data)
		case ok && (!reflect.DeepEqual(res, fe.Result) || created != fe.Created):
			t.Fatalf("fast path decoded %+v @%d, json %+v @%d: %q", res, created, fe.Result, fe.Created, data)
		case !ok && jsonHit && canonical(data, fe):
			t.Fatalf("fast path declined write's own bytes: %q", data)
		}
	})
}

// canonical reports whether data is what write produces for fe and
// holds only ASCII without escapes: the form decodeEntry must accept.
func canonical(data []byte, fe fileEntry) bool {
	want, err := json.Marshal(fe)
	if err != nil || !bytes.Equal(append(want, '\n'), data) || bytes.IndexByte(data, '\\') >= 0 {
		return false
	}
	for _, c := range data {
		if c >= 0x80 {
			return false
		}
	}
	return true
}
