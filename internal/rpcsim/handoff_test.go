package rpcsim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/simtime"
)

// refCall is the reference for Conn.Call, timing left out: every call
// encodes its request with the client's profile and decodes it with the
// server's, and the response the other way, whatever the two profiles are.
func refCall(client, server Security, addr string, h Handler, method string, payload []byte) ([]byte, error) {
	wire, err := Encode(client, payload)
	if err != nil {
		return nil, fmt.Errorf("rpcsim: encode request: %w", err)
	}
	req, err := decodeOwned(server, wire)
	if err != nil {
		return nil, fmt.Errorf("server %s rejected request: %w", addr, err)
	}
	resp, err := h(method, req)
	if err != nil {
		return nil, err
	}
	respWire, err := Encode(server, resp)
	if err != nil {
		return nil, fmt.Errorf("server %s: encode response: %w", addr, err)
	}
	if resp, err = decodeOwned(client, respWire); err != nil {
		return nil, fmt.Errorf("decode response from %s: %w", addr, err)
	}
	return resp, nil
}

// profilePairs is every (client, server) pair of allProfiles, and the pairs
// that encrypt on both ends with different keys.
func profilePairs() [][2]Security {
	var out [][2]Security
	for _, a := range allProfiles() {
		for _, b := range allProfiles() {
			out = append(out, [2]Security{a, b})
		}
	}
	for _, codec := range []string{CodecNone, CodecDeflate, CodecRLE} {
		out = append(out, [2]Security{
			{Codec: codec, Encrypt: true, Key: "k1"},
			{Codec: codec, Encrypt: true, Key: "k2"},
		})
	}
	return out
}

// rawHandlers answer in each way a Handler may: a new slice, the request
// itself, a slice of it, nothing, and an error.
var rawHandlers = map[string]Handler{
	"fresh":  func(method string, p []byte) ([]byte, error) { return append([]byte(method+":"), p...), nil },
	"echo":   func(_ string, p []byte) ([]byte, error) { return p, nil },
	"suffix": func(_ string, p []byte) ([]byte, error) { return p[min(len(p), 3):], nil },
	"nil":    func(string, []byte) ([]byte, error) { return nil, nil },
	"fault":  func(string, []byte) ([]byte, error) { return nil, errors.New("application fault") },
}

func sameCall(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%s = (%q, %v), the reference gives (%q, %v)", what, got, gotErr, want, wantErr)
	}
}

// A hand-off returns what the frames of the reference would, for every pair
// of profiles, to raw and to typed callers, errors included.
func TestCallMatchesReferenceAllPairs(t *testing.T) {
	t.Parallel()
	payloads := [][]byte{nil, {}, []byte("x"), []byte("the quick brown fox, repeated: aaaaaaaaaaaaaaaaaaaaaa")}
	svc := incTable()
	for _, pair := range profilePairs() {
		client, server := pair[0], pair[1]
		name := fmt.Sprintf("%s/%v/%s->%s/%v/%s", client.Codec, client.Encrypt, client.Key, server.Codec, server.Encrypt, server.Key)
		scale := simtime.NewVirtual()
		fx := NewFabric()
		for hname, h := range rawHandlers {
			if _, err := fx.Serve(hname, server, scale, h); err != nil {
				t.Fatal(err)
			}
			conn, err := fx.Dial(hname, client, scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads {
				got, gotErr := conn.Call("m", p)
				want, wantErr := refCall(client, server, hname, h, "m", bytes.Clone(p))
				sameCall(t, fmt.Sprintf("%s: %s handler on %q", name, hname, p), got, gotErr, want, wantErr)
			}
		}

		var node, refNode incNode
		if _, err := fx.Serve("typed", server, scale, svc.Bind("test: node", &node)); err != nil {
			t.Fatal(err)
		}
		conn, err := fx.Dial("typed", client, scale)
		if err != nil {
			t.Fatal(err)
		}
		req := incReq{N: 41, Tags: []string{"a", "b"}}
		got, gotErr := methodInc.Call(conn, req)
		var want incResp
		body, _ := canonjson.Append(nil, &req)
		out, wantErr := refCall(client, server, "typed", svc.Bind("test: node", &refNode), methodInc.Name, body)
		if wantErr == nil {
			if err := canonjson.Decode(out, &want, nil); err != nil {
				wantErr = fmt.Errorf("rpcsim: unmarshal %s response: %w", methodInc.Name, err)
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: typed call = (%+v, %v), the reference gives (%+v, %v)", name, got, gotErr, want, wantErr)
		}
		scale.Shutdown()
	}
}

// A response that is its request's memory is the caller's to keep: later
// calls do not write over it.
func TestEchoResponseOutlivesLaterCalls(t *testing.T) {
	t.Parallel()
	for _, scale := range []*simtime.Scale{simtime.NewVirtual(), testScale()} {
		fx := NewFabric()
		for _, addr := range []string{"echo", "other"} {
			if _, err := fx.Serve(addr, Security{}, scale, rawHandlers["echo"]); err != nil {
				t.Fatal(err)
			}
		}
		echo, _ := fx.Dial("echo", Security{}, scale)
		other, _ := fx.Dial("other", Security{}, scale)
		first, err := echo.Call("m", []byte("first payload"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			conn := echo
			if i%2 == 1 {
				conn = other
			}
			if _, err := conn.Call("m", []byte(fmt.Sprintf("later payload %03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if string(first) != "first payload" {
			t.Fatalf("an echoed response reads %q after 100 more calls", first)
		}
		scale.Shutdown()
	}
}

// The handler of a call its caller gave up on still owns its request while
// the caller goes on calling.
func TestTimedOutHandlerKeepsItsRequest(t *testing.T) {
	t.Parallel()
	scale := simtime.NewVirtual()
	defer scale.Shutdown()
	fx := NewFabric()
	var seen []string
	slow, err := fx.Serve("slow", Security{}, scale, func(_ string, p []byte) ([]byte, error) {
		seen = append(seen, string(p))
		return p, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slow.SetDelayTicks(50)
	if _, err := fx.Serve("fast", Security{}, scale, rawHandlers["echo"]); err != nil {
		t.Fatal(err)
	}
	slowConn, _ := fx.Dial("slow", Security{}, scale)
	fastConn, _ := fx.Dial("fast", Security{}, scale)
	slowConn.SetTimeoutTicks(10)
	if _, err := slowConn.Call("m", []byte("the slow request")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call = %v, want a timeout", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := fastConn.Call("m", []byte(fmt.Sprintf("a later request, number %03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	scale.Sleep(100)
	if !reflect.DeepEqual(seen, []string{"the slow request"}) {
		t.Fatalf("the timed-out handler read %q", seen)
	}
}

// FuzzCallProfiles holds Conn.Call to the reference, differentially: any
// two profiles and any payload give the same bytes and the same error, and
// an echoed response survives the next call.
func FuzzCallProfiles(f *testing.F) {
	f.Add([]byte("records records records"), uint8(0), uint8(0), "k1", "k1")
	f.Add([]byte{}, uint8(4), uint8(4), "k1", "k2")
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaa"), uint8(1), uint8(2), "", "")
	f.Add([]byte("x"), uint8(5), uint8(5), "k", "k")
	f.Add([]byte("x"), uint8(3), uint8(0), "", "")
	f.Fuzz(func(t *testing.T, payload []byte, a, b uint8, keyA, keyB string) {
		profile := func(sel uint8, key string) Security {
			codecs := []string{CodecNone, CodecDeflate, CodecRLE, "zip"}
			return Security{Codec: codecs[sel%4], Encrypt: sel&4 != 0, Key: key}
		}
		client, server := profile(a, keyA), profile(b, keyB)
		scale := simtime.NewVirtual()
		defer scale.Shutdown()
		fx := NewFabric()
		echo := rawHandlers["echo"]
		if _, err := fx.Serve("srv", server, scale, echo); err != nil {
			t.Fatal(err)
		}
		conn, err := fx.Dial("srv", client, scale)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := conn.Call("m", payload)
		want, wantErr := refCall(client, server, "srv", echo, "m", bytes.Clone(payload))
		sameCall(t, "Call", got, gotErr, want, wantErr)
		next := make([]byte, len(payload)) // as long: it fits the same frame
		for i, b := range payload {
			next[i] = ^b
		}
		gotNext, gotErr := conn.Call("m", next)
		wantNext, wantErr := refCall(client, server, "srv", echo, "m", bytes.Clone(next))
		sameCall(t, "the next Call", gotNext, gotErr, wantNext, wantErr)
		sameCall(t, "Call, after the next one", got, nil, want, nil)
	})
}

// TestPlainCallAllocs guards the hand-off: a typed call between equal plain
// profiles builds no frame, and its call and signal come from a pool.
func TestPlainCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects")
	}
	for _, tc := range []struct {
		name          string
		scale         *simtime.Scale
		allocs, bytes float64
	}{
		{"virtual", simtime.NewVirtual(), 8, 200},
		{"wall clock", testScale(), 12, 572},
	} {
		conn := serveDialOn(t, tc.scale, Security{}, benchService().Bind("bench: node", new(benchNode)))
		call := func() {
			if _, err := methodBenchHeartbeat.Call(conn, benchBeat); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, call)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 5000
		for i := 0; i < n; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.1f allocations, %.0f B per call", tc.name, allocs, bytes)
		if allocs > tc.allocs || bytes > tc.bytes {
			t.Errorf("%s: a plain typed call made %.1f allocations of %.0f B, want at most %.0f and %.0f B",
				tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
		tc.scale.Shutdown()
	}
}
