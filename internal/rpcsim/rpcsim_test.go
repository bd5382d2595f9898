package rpcsim

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"zebraconf/internal/simtime"
)

func testScale() *simtime.Scale {
	return &simtime.Scale{Tick: 100 * time.Microsecond}
}

// allProfiles is every (codec, encrypt) combination a Security can name.
func allProfiles() []Security {
	var out []Security
	for _, codec := range []string{CodecNone, CodecDeflate, CodecRLE} {
		for _, encrypt := range []bool{false, true} {
			out = append(out, Security{Codec: codec, Encrypt: encrypt, Key: "k1"})
		}
	}
	return out
}

func TestEncodeDecodeAllProfiles(t *testing.T) {
	t.Parallel()
	payload := []byte("the quick brown fox, repeated: aaaaaaaaaaaaaaaaaaaaaa")
	for _, sec := range allProfiles() {
		wire, err := Encode(sec, payload)
		if err != nil {
			t.Fatalf("Encode(%s/%v): %v", sec.Codec, sec.Encrypt, err)
		}
		out, err := Decode(sec, wire)
		if err != nil {
			t.Fatalf("Decode(%s/%v): %v", sec.Codec, sec.Encrypt, err)
		}
		if !bytes.Equal(out, payload) {
			t.Fatalf("round trip (%s/%v) corrupted payload", sec.Codec, sec.Encrypt)
		}
	}
}

func TestDecodeMismatchMatrix(t *testing.T) {
	t.Parallel()
	payload := []byte("records records records")
	cases := []struct {
		name       string
		send, recv Security
		wantErr    error
	}{
		{"encrypted-to-plain", Security{Encrypt: true, Key: "k"}, Security{}, ErrBadRecord},
		{"plain-to-encrypted", Security{}, Security{Encrypt: true, Key: "k"}, ErrBadRecord},
		{"wrong-key", Security{Encrypt: true, Key: "k1"}, Security{Encrypt: true, Key: "k2"}, ErrBadRecord},
		{"compressed-to-plain", Security{Codec: CodecDeflate}, Security{}, ErrBadHeader},
		{"plain-to-compressed", Security{}, Security{Codec: CodecDeflate}, ErrBadHeader},
		{"codec-skew", Security{Codec: CodecDeflate}, Security{Codec: CodecRLE}, ErrUnknownCodec},
	}
	for _, c := range cases {
		wire, err := Encode(c.send, payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		_, err = Decode(c.recv, wire)
		if err == nil {
			t.Fatalf("%s: decode succeeded across mismatched settings", c.name)
		}
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: error %v, want class %v", c.name, err, c.wantErr)
		}
	}
}

// Property: every (codec, encrypt) profile round-trips arbitrary payloads.
func TestWireRoundTripProperty(t *testing.T) {
	t.Parallel()
	fn := func(payload []byte, codecSel, encrypt bool) bool {
		sec := Security{Key: "prop"}
		if codecSel {
			sec.Codec = CodecRLE
		} else {
			sec.Codec = CodecDeflate
		}
		sec.Encrypt = encrypt
		wire, err := Encode(sec, payload)
		if err != nil {
			return false
		}
		out, err := Decode(sec, wire)
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRLEEdgeCases(t *testing.T) {
	t.Parallel()
	long := bytes.Repeat([]byte{0xAB}, 1000) // forces run-length splitting at 255
	enc := rleEncode(long)
	dec, err := rleDecode(enc)
	if err != nil || !bytes.Equal(dec, long) {
		t.Fatalf("long-run RLE round trip failed: %v", err)
	}
	if _, err := rleDecode([]byte{1}); err == nil {
		t.Fatal("odd-length RLE stream accepted")
	}
	if _, err := rleDecode([]byte{0, 'x'}); err == nil {
		t.Fatal("zero-length run accepted")
	}
	if out := rleEncode(nil); len(out) != 0 {
		t.Fatalf("rleEncode(nil) = %v", out)
	}
}

func TestXorKeystreamInvolution(t *testing.T) {
	t.Parallel()
	data := []byte("sensitive bytes")
	once := xorKeystream("key", data)
	if bytes.Equal(once, data) {
		t.Fatal("keystream is a no-op")
	}
	twice := xorKeystream("key", once)
	if !bytes.Equal(twice, data) {
		t.Fatal("applying the keystream twice did not restore the input")
	}
}

func TestFabricServeDialCall(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	sec := Security{Protection: "auth", Version: 3}
	_, err := fx.Serve("svc", sec, scale, func(method string, payload []byte) ([]byte, error) {
		return append([]byte(method+":"), payload...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("svc", sec, scale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conn.Call("echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("Call = %q", out)
	}
}

func TestFabricHandshakeFailures(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	srvSec := Security{Protection: "privacy", Version: 2, RequireToken: true}
	if _, err := fx.Serve("locked", srvSec, scale, nil); err != nil {
		t.Fatal(err)
	}
	cases := []Security{
		{Protection: "auth", Version: 2, RequireToken: true},     // protection skew
		{Protection: "privacy", Version: 1, RequireToken: true},  // version skew
		{Protection: "privacy", Version: 2, RequireToken: false}, // token skew
	}
	for i, sec := range cases {
		if _, err := fx.Dial("locked", sec, scale); !errors.Is(err, ErrHandshake) {
			t.Fatalf("case %d: err = %v, want handshake failure", i, err)
		}
	}
	if _, err := fx.Dial("nowhere", srvSec, scale); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial to unbound address: %v", err)
	}
}

func TestFabricDuplicateBindAndClose(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	s, err := fx.Serve("addr", Security{}, scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Serve("addr", Security{}, scale, nil); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := fx.Dial("addr", Security{}, scale); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := fx.Serve("addr", Security{}, scale, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestCallTimeoutAndKeepalive(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := simtime.NewVirtual()
	defer scale.Shutdown()
	srv, err := fx.Serve("slow", Security{}, scale, func(string, []byte) ([]byte, error) {
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetDelayTicks(60)

	// Without pings, a 20-tick timeout trips on the 60-tick handler.
	conn, err := fx.Dial("slow", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetTimeoutTicks(20)
	if _, err := conn.Call("op", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}

	// With pings every 5 ticks, the same call survives.
	srv.SetPingTicks(5)
	if out, err := conn.Call("op", nil); err != nil || string(out) != "done" {
		t.Fatalf("keepalive call = (%q, %v)", out, err)
	}
}

func TestCallHandlerError(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	if _, err := fx.Serve("err", Security{}, scale, func(string, []byte) ([]byte, error) {
		return nil, errors.New("application fault")
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := fx.Dial("err", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("x", nil); err == nil || !strings.Contains(err.Error(), "application fault") {
		t.Fatalf("handler error not propagated: %v", err)
	}
}

func TestCallAcrossMismatchedTransport(t *testing.T) {
	t.Parallel()
	fx := NewFabric()
	scale := testScale()
	if _, err := fx.Serve("enc", Security{Encrypt: true, Key: "k"}, scale, func(_ string, p []byte) ([]byte, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Handshake fields match; payload encryption differs -> decode error
	// at the server.
	conn, err := fx.Dial("enc", Security{}, scale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call("p", []byte("data")); err == nil || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("mismatched transport call: %v", err)
	}
}

// TestCallTimingTable pins Call's timing on a virtual clock: the outcome
// and the exact tick the caller resumes on, including the edges where the
// handler, a ping and the timeout fall on one tick.
func TestCallTimingTable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		timeout, ping, handler int64
		timesOut               bool
		elapsed                int64
	}{
		{timeout: 0, ping: 0, handler: 50, elapsed: 50},
		{timeout: 0, ping: 5, handler: 12, elapsed: 12}, // pings without a timeout are not even waited for
		{timeout: 20, ping: 0, handler: 0, elapsed: 0},
		{timeout: 20, ping: 0, handler: 19, elapsed: 19},
		{timeout: 20, ping: 0, handler: 20, elapsed: 20}, // a result due on the timeout's tick wins
		{timeout: 20, ping: 0, handler: 21, timesOut: true, elapsed: 20},
		{timeout: 20, ping: 0, handler: 60, timesOut: true, elapsed: 20},
		{timeout: 20, ping: 5, handler: 60, elapsed: 60},
		{timeout: 20, ping: 20, handler: 60, elapsed: 60}, // a ping due on the timeout's tick wins, each time
		{timeout: 20, ping: 21, handler: 60, timesOut: true, elapsed: 20},
		{timeout: 10, ping: 7, handler: 25, elapsed: 25}, // pings at 7, 14, 21 push the deadline to 17, 24, 31
		{timeout: 10, ping: 7, handler: 31, elapsed: 31}, // 28 pushes it to 38
		{timeout: 1, ping: 1, handler: 1000, elapsed: 1000},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("timeout=%d,ping=%d,handler=%d", c.timeout, c.ping, c.handler), func(t *testing.T) {
			t.Parallel()
			scale := simtime.NewVirtual()
			defer scale.Shutdown() // ends the handler a timed-out call left asleep
			fx := NewFabric()
			srv, err := fx.Serve("srv", Security{}, scale, func(string, []byte) ([]byte, error) {
				return []byte("done"), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.SetDelayTicks(c.handler)
			srv.SetPingTicks(c.ping)
			conn, err := fx.Dial("srv", Security{}, scale)
			if err != nil {
				t.Fatal(err)
			}
			conn.SetTimeoutTicks(c.timeout)
			scale.Sleep(3) // calls need not start on tick 0
			start := scale.Now()
			out, err := conn.Call("op", nil)
			if c.timesOut {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("Call = (%q, %v), want a timeout", out, err)
				}
			} else if err != nil || string(out) != "done" {
				t.Fatalf("Call = (%q, %v), want the result", out, err)
			}
			if got := scale.Since(start); got != c.elapsed {
				t.Fatalf("Call took %d ticks, want %d", got, c.elapsed)
			}
		})
	}
}
