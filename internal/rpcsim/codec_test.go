package rpcsim

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// The reference codecs: the bodies the applications and the wire codec
// carried before the state was pooled, one fresh writer or reader per
// call. The pooled functions must be indistinguishable from them.

func refDeflate(level int, data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func refGzip(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func refInflate(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	return io.ReadAll(r)
}

func refGunzip(data []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// codecPair is one compressor with its decompressor, pooled and reference.
type codecPair struct {
	name              string
	pack, refPack     func([]byte) ([]byte, error)
	unpack, refUnpack func([]byte) ([]byte, error)
}

// codecPairs lists every level and codec the applications use: the wire
// codec and minimr part files (BestSpeed), the minihdfs fsimage
// (BestCompression, or gzip).
func codecPairs() []codecPair {
	atLevel := func(f func(int, []byte) ([]byte, error), level int) func([]byte) ([]byte, error) {
		return func(data []byte) ([]byte, error) { return f(level, data) }
	}
	return []codecPair{
		{name: "deflate-best-speed",
			pack: atLevel(Deflate, BestSpeed), refPack: atLevel(refDeflate, flate.BestSpeed),
			unpack: Inflate, refUnpack: refInflate},
		{name: "deflate-best-compression",
			pack: atLevel(Deflate, BestCompression), refPack: atLevel(refDeflate, flate.BestCompression),
			unpack: Inflate, refUnpack: refInflate},
		{name: "gzip", pack: Gzip, refPack: refGzip, unpack: Gunzip, refUnpack: refGunzip},
	}
}

// codecPayloads covers empty, tiny, text-like and incompressible input,
// in sizes on both sides of DEFLATE's 32 KiB window.
func codecPayloads() [][]byte {
	rng := rand.New(rand.NewSource(21))
	noise := make([]byte, 34<<10)
	rng.Read(noise)
	var text bytes.Buffer
	for i := 0; text.Len() < 40<<10; i++ {
		fmt.Fprintf(&text, "word%d\t%d\n", i%97, i)
	}
	return [][]byte{
		nil,
		[]byte("x"),
		[]byte("the quick brown fox, repeated: aaaaaaaaaaaaaaaaaaaaaa"),
		bytes.Repeat([]byte{0}, 1<<10),
		text.Bytes()[:1<<10],
		noise[:3<<10],
		text.Bytes(),
		noise,
	}
}

// TestPooledCodecIsTheFreshCodec: for every codec and level in use, the
// pooled compressor emits the bytes a fresh writer emits — the first time
// and after its state has been through the pool with a different payload —
// and the pooled decompressor returns what a fresh reader returns.
func TestPooledCodecIsTheFreshCodec(t *testing.T) {
	t.Parallel()
	payloads := codecPayloads()
	for _, c := range codecPairs() {
		want := make([][]byte, len(payloads))
		for i, p := range payloads {
			var err error
			if want[i], err = c.refPack(p); err != nil {
				t.Fatal(err)
			}
		}
		// Three sweeps, the middle one backwards: every payload follows a
		// different one through the same pooled state.
		for sweep := 0; sweep < 3; sweep++ {
			for i := range payloads {
				if sweep == 1 {
					i = len(payloads) - 1 - i
				}
				p := payloads[i]
				got, err := c.pack(p)
				if err != nil {
					t.Fatalf("%s: payload %d: %v", c.name, i, err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("%s sweep %d: payload %d (%d bytes) compressed to %d bytes that differ from a fresh writer's %d",
						c.name, sweep, i, len(p), len(got), len(want[i]))
				}
				back, err := c.unpack(got)
				if err != nil || !bytes.Equal(back, p) {
					t.Fatalf("%s sweep %d: payload %d did not round-trip: %d bytes, err %v", c.name, sweep, i, len(back), err)
				}
			}
		}
	}
	if _, err := Deflate(flate.BestCompression+1, nil); err == nil {
		t.Error("Deflate accepted a level flate.NewWriter rejects")
	}
}

// TestWireCodecsUnchanged pins the two codecs of the payload header to
// their definitions: deflate is the fresh BestSpeed stream, RLE is
// untouched by the pooling.
func TestWireCodecsUnchanged(t *testing.T) {
	t.Parallel()
	for i, p := range codecPayloads() {
		want, err := refDeflate(flate.BestSpeed, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := compress(CodecDeflate, p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("payload %d: compress(deflate) differs from a fresh BestSpeed writer (err %v)", i, err)
		}
		if got, err := compress(CodecRLE, p); err != nil || !bytes.Equal(got, rleEncode(p)) {
			t.Fatalf("payload %d: compress(rle) is not rleEncode (err %v)", i, err)
		}
		for _, codec := range []string{CodecDeflate, CodecRLE} {
			packed, _ := compress(codec, p)
			if back, err := decompress(codec, packed); err != nil || !bytes.Equal(back, p) {
				t.Fatalf("payload %d: %s did not round-trip (err %v)", i, codec, err)
			}
		}
	}
}

// TestDecoderReusedAfterCorruptStream: the codec-skew tests hand a decoder
// garbage on purpose. A pooled decoder must fail exactly as a fresh one —
// same error, same bytes decoded before it — and the stream after it must
// decode as if nothing had happened, however often that repeats.
func TestDecoderReusedAfterCorruptStream(t *testing.T) {
	t.Parallel()
	payloads := codecPayloads()
	big := payloads[len(payloads)-2]
	deflated, _ := refDeflate(flate.BestSpeed, big)
	gzipped, _ := refGzip(big)
	flipped := bytes.Clone(gzipped)
	flipped[len(flipped)-5] ^= 0xFF // the CRC-32 in the trailer
	cases := []struct {
		name              string
		unpack, refUnpack func([]byte) ([]byte, error)
		corrupt           [][]byte
		valid             []byte
	}{
		{"inflate", Inflate, refInflate, [][]byte{
			gzipped,                       // gzip bytes to the deflate reader
			deflated[:len(deflated)/2],    // truncated mid-stream
			[]byte("not a stream at all"), // garbage
		}, deflated},
		{"gunzip", Gunzip, refGunzip, [][]byte{
			deflated,                 // deflate bytes to the gzip reader: no header
			gzipped[:len(gzipped)/2], // truncated mid-stream
			gzipped[:5],              // truncated inside the header
			flipped,                  // checksum mismatch at the very end
			[]byte("not a stream at all"),
		}, gzipped},
	}
	for _, c := range cases {
		for round := 0; round < 4; round++ {
			for i, bad := range c.corrupt {
				wantOut, wantErr := c.refUnpack(bad)
				gotOut, gotErr := c.unpack(bad)
				if wantErr == nil {
					t.Fatalf("%s: corrupt stream %d decodes on a fresh reader; the case is vacuous", c.name, i)
				}
				if gotErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s round %d: corrupt stream %d: error %v, a fresh reader says %v", c.name, round, i, gotErr, wantErr)
				}
				if !bytes.Equal(gotOut, wantOut) {
					t.Fatalf("%s round %d: corrupt stream %d: %d bytes decoded before the error, a fresh reader decodes %d",
						c.name, round, i, len(gotOut), len(wantOut))
				}
				back, err := c.unpack(c.valid)
				if err != nil || !bytes.Equal(back, big) {
					t.Fatalf("%s round %d: the valid stream after corrupt stream %d decoded to %d bytes, err %v",
						c.name, round, i, len(back), err)
				}
			}
		}
	}
}

// TestCodecResultsAreNotPooledMemory: only codec state is pooled. A slice
// a call returned is the caller's, and the next call — which reuses that
// state — leaves it as it was.
func TestCodecResultsAreNotPooledMemory(t *testing.T) {
	t.Parallel()
	payloads := codecPayloads()
	first, second := payloads[len(payloads)-2], payloads[len(payloads)-1]
	for _, c := range codecPairs() {
		packed, err := c.pack(first)
		if err != nil {
			t.Fatal(err)
		}
		keep := bytes.Clone(packed)
		packed2, err := c.pack(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(packed, keep) {
			t.Fatalf("%s: a compressed result changed under the next call", c.name)
		}
		plain, err := c.unpack(packed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.unpack(packed2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain, first) {
			t.Fatalf("%s: a decompressed result changed under the next call", c.name)
		}
	}
}

// TestCodecConcurrentRoundTrips: executions compress from many goroutines
// at once; each gets its own payload back. Meaningful under -race.
func TestCodecConcurrentRoundTrips(t *testing.T) {
	t.Parallel()
	pairs := codecPairs()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				p := bytes.Repeat([]byte(fmt.Sprintf("goroutine %d payload %d;", g, i)), 1+rng.Intn(200))
				c := pairs[(g+i)%len(pairs)]
				packed, err := c.pack(p)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := c.refPack(p)
				back, err := c.unpack(packed)
				if err != nil || !bytes.Equal(back, p) || !bytes.Equal(packed, want) {
					t.Errorf("%s: goroutine %d payload %d: round trip %d → %d → %d bytes, err %v, matches fresh writer %v",
						c.name, g, i, len(p), len(packed), len(back), err, bytes.Equal(packed, want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
