package rpcsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/simtime"
)

type incReq struct {
	N    int
	Tags []string
}

type incResp struct {
	N    int
	Blob []byte
}

var (
	methodInc  = Method[incReq, incResp]{Name: "inc"}
	methodNote = Command[incReq]{Name: "note"}
	methodPing = Method[Empty, incResp]{Name: "ping"}
)

// serveDial binds h at "srv" under sec and dials it with the same profile,
// on a wall-clock Scale.
func serveDial(t testing.TB, sec Security, h Handler) *Conn {
	t.Helper()
	return serveDialOn(t, testScale(), sec, h)
}

// serveDialOn is serveDial on scale.
func serveDialOn(t testing.TB, scale *simtime.Scale, sec Security, h Handler) *Conn {
	t.Helper()
	fx := NewFabric()
	if _, err := fx.Serve("srv", sec, scale, h); err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("srv", sec, scale)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// incNode is the node the test service serves: note records its request
// and returns err, ping answers pong.
type incNode struct {
	noted incReq
	err   error
	pong  incResp
}

// incTable returns a service of the three test methods.
func incTable() *Service[incNode] {
	svc := new(Service[incNode])
	Handle(svc, methodInc, func(_ *incNode, req *incReq) (incResp, error) {
		return incResp{N: req.N + 1, Blob: []byte(fmt.Sprint(req.Tags))}, nil
	})
	HandleCommand(svc, methodNote, func(n *incNode, req *incReq) error { n.noted = *req; return n.err })
	Handle(svc, methodPing, func(n *incNode, _ *Empty) (incResp, error) { return n.pong, nil })
	return svc
}

func TestMethodRoundTripAllProfiles(t *testing.T) {
	t.Parallel()
	svc := incTable()
	for _, sec := range allProfiles() {
		var node incNode
		conn := serveDial(t, sec, svc.Bind("test: node", &node))

		resp, err := methodInc.Call(conn, incReq{N: 41, Tags: []string{"a", "b"}})
		if err != nil || resp.N != 42 || string(resp.Blob) != "[a b]" {
			t.Fatalf("%s/%v: inc = (%+v, %v)", sec.Codec, sec.Encrypt, resp, err)
		}
		if err := methodNote.Call(conn, incReq{N: 7}); err != nil || node.noted.N != 7 {
			t.Fatalf("%s/%v: note = %v, handler saw %+v", sec.Codec, sec.Encrypt, err, node.noted)
		}
	}
}

// wireCase is one message shape of TestMethodWireIsJSON: a request and a
// response of any supported types, checked in both directions.
type wireCase struct {
	name string
	run  func(t *testing.T)
}

func wireCaseOf[Req, Resp any](name string, req Req, resp Resp) wireCase {
	return wireCase{name, func(t *testing.T) {
		m := Method[Req, Resp]{Name: "inc"}
		wantReq, _ := json.Marshal(req)
		wantResp, _ := json.Marshal(resp)
		// What json.Unmarshal makes of the bytes: invalid UTF-8 comes back
		// as U+FFFD, so this is not always req or resp itself.
		var reqValue Req
		var respValue Resp
		if err := json.Unmarshal(wantReq, &reqValue); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(wantResp, &respValue); err != nil {
			t.Fatal(err)
		}

		// Typed client, raw server.
		var gotMethod string
		var gotReq []byte
		raw := serveDial(t, Security{}, func(method string, payload []byte) ([]byte, error) {
			gotMethod, gotReq = method, append([]byte(nil), payload...)
			return wantResp, nil
		})
		out, err := m.Call(raw, req)
		if err != nil || !reflect.DeepEqual(out, respValue) {
			t.Fatalf("typed call of a raw handler = (%#v, %v), want %#v", out, err, respValue)
		}
		if gotMethod != "inc" || !bytes.Equal(gotReq, wantReq) {
			t.Fatalf("raw handler saw %s %s, want inc %s", gotMethod, gotReq, wantReq)
		}

		// Raw client, typed server.
		var seen Req
		svc := new(Service[Req])
		Handle(svc, m, func(n *Req, req *Req) (Resp, error) { *n = *req; return resp, nil })
		typed := serveDial(t, Security{}, svc.Bind("test: node", &seen))
		got, err := typed.Call("inc", wantReq)
		if err != nil || !bytes.Equal(got, wantResp) {
			t.Fatalf("raw call of a typed handler = (%s, %v), want %s", got, err, wantResp)
		}
		if !reflect.DeepEqual(seen, reqValue) {
			t.Fatalf("typed handler saw %#v, want %#v", seen, reqValue)
		}
	}}
}

// The bytes a declaration puts on the wire are json.Marshal's, in both
// directions — the reference for any other codec.
func TestMethodWireIsJSON(t *testing.T) {
	t.Parallel()
	controls := string([]byte{0, 1, '\b', '\f', '\n', '\r', '\t', 0x1f, 0x7f})
	for _, c := range []wireCase{
		wireCaseOf("shape", incReq{N: 3, Tags: []string{"x"}}, incResp{N: 4, Blob: []byte{0, 1, 2}}),
		wireCaseOf("html escapes", incReq{Tags: []string{"<a href=\"x\">&amp;</a>", `back\slash`}},
			incResp{Blob: []byte("<>&")}),
		wireCaseOf("line and paragraph separators", incReq{Tags: []string{"a\u2028b\u2029c", "\u00e9\u20ac\U0001F600"}}, incResp{}),
		wireCaseOf("control characters", incReq{Tags: []string{controls}}, incResp{Blob: []byte(controls)}),
		wireCaseOf("invalid UTF-8", incReq{Tags: []string{"\xff", "a\xc3", "\xed\xa0\x80z"}}, incResp{}),
		wireCaseOf("nil slices", incReq{N: -1}, incResp{N: math.MinInt64}),
		wireCaseOf("empty slices", incReq{N: math.MaxInt64, Tags: []string{}}, incResp{Blob: []byte{}}),
		wireCaseOf("top-level slice", incReq{}, []incResp{{N: 1}, {Blob: []byte("z")}}),
		wireCaseOf("top-level empty slice", incReq{}, []incResp{}),
		wireCaseOf("top-level int", incReq{}, 7),
	} {
		t.Run(c.name, c.run)
	}

	req := incReq{N: 3, Tags: []string{"x"}}
	resp := incResp{N: 4, Blob: []byte{0, 1, 2}}
	wantReq, _ := json.Marshal(req)
	wantResp, _ := json.Marshal(resp)

	// An Empty request is written as {}, and an Empty response is not
	// parsed: the garbage body costs nothing.
	var gotReq []byte
	raw := serveDial(t, Security{}, func(method string, payload []byte) ([]byte, error) {
		gotReq = payload
		return []byte("not json"), nil
	})
	if _, err := methodPing.Call(raw, Empty{}); err == nil || !bytes.Equal(gotReq, []byte("{}")) {
		t.Fatalf("empty request on the wire = %s (decode error %v), want {}", gotReq, err)
	}
	if err := methodNote.Call(raw, req); err != nil {
		t.Fatalf("command decoded its response: %v", err)
	}

	// Raw client, typed server: an Empty request is not parsed either.
	typed := serveDial(t, Security{}, incTable().Bind("test: node", &incNode{pong: resp}))
	got, err := typed.Call("ping", []byte("an Empty request is not parsed either"))
	if err != nil || !bytes.Equal(got, wantResp) {
		t.Fatalf("raw call of a typed handler = (%s, %v), want %s", got, err, wantResp)
	}
	if got, err := typed.Call("note", wantReq); err != nil || string(got) != "{}" {
		t.Fatalf("command response on the wire = (%s, %v), want {}", got, err)
	}
}

func TestTableErrors(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("operation declined")
	conn := serveDial(t, Security{}, incTable().Bind("test: node", &incNode{err: sentinel}))

	_, err := conn.Call("nope", nil)
	if want := `test: node: unknown method "nope"`; err == nil || err.Error() != want {
		t.Fatalf("unknown method: %v, want %s", err, want)
	}

	bad := []byte(`{"N":"three"}`)
	jsonErr := json.Unmarshal(bad, new(incReq))
	_, err = conn.Call("inc", bad)
	if want := "rpcsim: bad inc request: " + jsonErr.Error(); err == nil || err.Error() != want {
		t.Fatalf("malformed request: %v, want %s", err, want)
	}

	if err := methodNote.Call(conn, incReq{}); err != sentinel {
		t.Fatalf("handler error reached the caller as %v, want it unwrapped", err)
	}
}

func TestTableRejectsDuplicateMethod(t *testing.T) {
	t.Parallel()
	svc := incTable()
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of one name did not panic")
		}
	}()
	HandleCommand(svc, Command[incReq]{Name: "inc"}, func(*incNode, *incReq) error { return nil })
}

type (
	withPointer  struct{ P *int }
	withEmbedded struct{ incReq }
	withChan     struct{ C chan int }
	withIntKeys  struct{ M map[int]string }
	withNested   struct{ Inner []withChan }
	withHidden   struct {
		N      int
		hidden map[string]int
	}
)

// A wire type outside the supported kinds fails where its Method is
// handled, naming the type and the field.
func TestHandleRejectsUnsupportedKinds(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		handle func()
		want   string
	}{
		{func() { Handle(new(Service[int]), Method[withPointer, Empty]{}, nil) }, "rpcsim.withPointer.P: unsupported wire type *int"},
		{func() { Handle(new(Service[int]), Method[Empty, withChan]{}, nil) }, "rpcsim.withChan.C: unsupported wire type chan int"},
		{func() { Handle(new(Service[int]), Method[withIntKeys, Empty]{}, nil) }, "rpcsim.withIntKeys.M: unsupported wire type map[int]string"},
		{func() { HandleCommand(new(Service[int]), Command[withEmbedded]{}, nil) }, "rpcsim.withEmbedded.incReq: unsupported wire type rpcsim.withEmbedded: embedded field"},
		{func() { HandleCommand(new(Service[int]), Command[withNested]{}, nil) }, "rpcsim.withNested.Inner[].C: unsupported wire type chan int"},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, c.want) {
					t.Errorf("panic %q, want it to contain %q", msg, c.want)
				}
			}()
			c.handle()
		}()
	}

	// Unexported fields are skipped, as json skips them.
	v := withHidden{N: 1, hidden: map[string]int{"x": 1}}
	want, _ := json.Marshal(v)
	if got, _ := canonjson.Append(nil, &v); !bytes.Equal(got, want) {
		t.Fatalf("body with an unexported field = %s, want %s", got, want)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode under every profile: it may
// refuse them, never panic, and what Encode wrote it must give back.
func FuzzDecode(f *testing.F) {
	for _, sec := range allProfiles() {
		wire, err := Encode(sec, []byte("the quick brown fox, repeated: aaaaaaaaaaaaaaaaaaaaaa"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add(append(append([]byte{}, magicCMP...), 2, 0, 'x'))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sec := range allProfiles() {
			_, _ = Decode(sec, data)
			wire, err := Encode(sec, data)
			if err != nil {
				t.Fatalf("Encode(%s/%v): %v", sec.Codec, sec.Encrypt, err)
			}
			out, err := Decode(sec, wire)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("Decode(Encode(x)) under %s/%v = (%x, %v), want %x", sec.Codec, sec.Encrypt, out, err, data)
			}
		}
	})
}

// fuzzBody has a field of every supported kind.
type fuzzBody struct {
	S      string
	B      bool
	I      int
	I64    int64
	U32    uint32
	Raw    []byte
	Strs   []string
	Inner  fuzzInner
	Nested []fuzzInner
}

type fuzzInner struct {
	ID   int64
	Sums []uint32
	Ok   bool
}

// checkWireBody holds the codec to encoding/json on data as a body of type
// T: the same value and error from decoding, and, for a value that
// decodes, the same bytes from encoding, which the codec parses without
// falling back.
func checkWireBody[T any](t *testing.T, data []byte) {
	var got, want T
	gotErr, wantErr := canonjson.Decode(data, &got, nil), json.Unmarshal(data, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %T %q = (%#v, %v), json gives (%#v, %v)", got, data, got, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	enc, _ := json.Marshal(want)
	if got, _ := canonjson.Append(nil, &want); !bytes.Equal(got, enc) {
		t.Fatalf("encode %#v = %s, json gives %s", want, got, enc)
	}
	if !canonjson.Fast(enc, new(T), nil) {
		t.Fatalf("canonical body %s left the fast path", enc)
	}
}

// FuzzWireBody checks the body codec against encoding/json, differentially,
// on a struct of every supported kind, a top-level slice and a top-level
// int.
func FuzzWireBody(f *testing.F) {
	for _, v := range []fuzzBody{
		{S: "<>&", Strs: []string{"\u2028", "\u2029"}},
		{S: "\xff\xfe", Strs: []string{"a\xc3", "\xed\xa0\x80"}},
		{S: "\x00\x01\b\f\n\r\t\x1f\x7f\"\\"},
		{Raw: []byte{}, Strs: []string{}, Nested: []fuzzInner{}},
		{Raw: []byte{0, 0xff}, Nested: []fuzzInner{{ID: 1, Sums: []uint32{0, math.MaxUint32}, Ok: true}}},
		{I: math.MinInt64, I64: math.MaxInt64, U32: math.MaxUint32, B: true},
		{I: math.MaxInt64, I64: math.MinInt64, Inner: fuzzInner{Sums: []uint32{}}},
	} {
		body, _ := json.Marshal(v)
		f.Add(body)
	}
	for _, s := range []string{
		`{"S":"\ud83d\ude00","I":1e3}`, `{ "S" : "x" }`, `{"s":"x"}`, `{"I":9223372036854775808}`,
		`{"U32":-1}`, `{"Raw":"AA"}`, `{"Raw":[1,2]}`, `[{"ID":1},{"ID":-0}]`, `null`, `[]`, `7`, `-0`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireBody[fuzzBody](t, data)
		checkWireBody[[]fuzzInner](t, data)
		checkWireBody[int](t, data)
	})
}

// heartbeat-shaped messages for the benchmarks.
type (
	benchHeartbeat struct {
		DNID      string
		Capacity  int64
		Remaining int64
		Blocks    int
	}
	benchCommands struct{ DeleteBlocks []int64 }
	benchNode     struct{ beats int }
)

var methodBenchHeartbeat = Method[benchHeartbeat, benchCommands]{Name: "heartbeat"}

func benchService() *Service[benchNode] {
	svc := new(Service[benchNode])
	HandleCommand(svc, Command[benchHeartbeat]{Name: "register"}, func(*benchNode, *benchHeartbeat) error { return nil })
	Handle(svc, methodBenchHeartbeat, func(n *benchNode, req *benchHeartbeat) (benchCommands, error) {
		n.beats++
		return benchCommands{DeleteBlocks: []int64{int64(n.beats), 1 << 40}}, nil
	})
	HandleCommand(svc, Command[benchHeartbeat]{Name: "deregister"}, func(*benchNode, *benchHeartbeat) error { return nil })
	return svc
}

// BenchmarkMethodCall prices one typed call, body codec and frames
// included, on a plain and on an encrypting, compressing profile, each on a
// wall-clock Scale and, under virtual/, on the virtual one campaigns run.
func BenchmarkMethodCall(b *testing.B) {
	for _, virtual := range []bool{false, true} {
		for _, sec := range []Security{{}, {Encrypt: true, Key: "k", Codec: CodecDeflate}} {
			name := "plain"
			if sec.Encrypt {
				name = "encrypt+deflate"
			}
			scale := testScale()
			if virtual {
				name = "virtual/" + name
			}
			b.Run(name, func(b *testing.B) {
				if virtual {
					scale = simtime.NewVirtual()
					defer scale.Shutdown()
				}
				conn := serveDialOn(b, scale, sec, benchService().Bind("bench: node", new(benchNode)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := methodBenchHeartbeat.Call(conn, benchBeat); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var benchBeat = benchHeartbeat{DNID: "dn-0", Capacity: 1 << 30, Remaining: 1 << 29, Blocks: 12}

var boundHandler Handler

// BenchmarkBind prices what a node pays to serve its Service.
func BenchmarkBind(b *testing.B) {
	svc, node := benchService(), new(benchNode)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		boundHandler = svc.Bind("bench: node", node)
	}
}
