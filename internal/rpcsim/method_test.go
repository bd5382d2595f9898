package rpcsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
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

// serveDial binds h at "srv" under sec and dials it with the same profile.
func serveDial(t *testing.T, sec Security, h Handler) *Conn {
	t.Helper()
	fx := NewFabric()
	scale := testScale()
	if _, err := fx.Serve("srv", sec, scale, h); err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("srv", sec, scale)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func incTable() *Table {
	tbl := NewTable("test: node")
	methodInc.Serve(tbl, func(req *incReq) (incResp, error) {
		return incResp{N: req.N + 1, Blob: []byte(fmt.Sprint(req.Tags))}, nil
	})
	return tbl
}

func TestMethodRoundTripAllProfiles(t *testing.T) {
	t.Parallel()
	for _, sec := range allProfiles() {
		var noted incReq
		tbl := incTable()
		methodNote.Serve(tbl, func(req *incReq) error { noted = *req; return nil })
		conn := serveDial(t, sec, tbl.Handle)

		resp, err := methodInc.Call(conn, incReq{N: 41, Tags: []string{"a", "b"}})
		if err != nil || resp.N != 42 || string(resp.Blob) != "[a b]" {
			t.Fatalf("%s/%v: inc = (%+v, %v)", sec.Codec, sec.Encrypt, resp, err)
		}
		if err := methodNote.Call(conn, incReq{N: 7}); err != nil || noted.N != 7 {
			t.Fatalf("%s/%v: note = %v, handler saw %+v", sec.Codec, sec.Encrypt, err, noted)
		}
	}
}

// The bytes a declaration puts on the wire are json.Marshal's, in both
// directions — the reference a faster codec must reproduce.
func TestMethodWireIsJSON(t *testing.T) {
	t.Parallel()
	req := incReq{N: 3, Tags: []string{"x"}}
	resp := incResp{N: 4, Blob: []byte{0, 1, 2}}
	wantReq, _ := json.Marshal(req)
	wantResp, _ := json.Marshal(resp)

	// Typed client, raw server.
	var gotMethod string
	var gotReq []byte
	raw := serveDial(t, Security{}, func(method string, payload []byte) ([]byte, error) {
		gotMethod, gotReq = method, payload
		if method == methodInc.Name {
			return wantResp, nil
		}
		return []byte("not json"), nil
	})
	out, err := methodInc.Call(raw, req)
	if err != nil || out.N != resp.N || !bytes.Equal(out.Blob, resp.Blob) {
		t.Fatalf("typed call of a raw handler = (%+v, %v)", out, err)
	}
	if gotMethod != "inc" || !bytes.Equal(gotReq, wantReq) {
		t.Fatalf("raw handler saw %s %s, want inc %s", gotMethod, gotReq, wantReq)
	}
	if _, err := methodPing.Call(raw, Empty{}); err == nil || !bytes.Equal(gotReq, []byte("{}")) {
		t.Fatalf("empty request on the wire = %s (decode error %v), want {}", gotReq, err)
	}
	// An Empty response is not parsed: the garbage body costs nothing.
	if err := methodNote.Call(raw, req); err != nil {
		t.Fatalf("command decoded its response: %v", err)
	}

	// Raw client, typed server.
	tbl := incTable()
	methodNote.Serve(tbl, func(*incReq) error { return nil })
	methodPing.Serve(tbl, func(*Empty) (incResp, error) { return resp, nil })
	typed := serveDial(t, Security{}, tbl.Handle)
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
	tbl := incTable()
	methodNote.Serve(tbl, func(*incReq) error { return sentinel })
	conn := serveDial(t, Security{}, tbl.Handle)

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
	tbl := incTable()
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of one name did not panic")
		}
	}()
	Command[incReq]{Name: "inc"}.Serve(tbl, func(*incReq) error { return nil })
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
