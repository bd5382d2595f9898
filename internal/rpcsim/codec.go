package rpcsim

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// This file holds the only compress/flate and compress/gzip call sites
// outside tests: the wire codec (wire.go) and the applications' at-rest
// formats (minimr part files, the minihdfs fsimage) all compress through
// Deflate / Inflate / Gzip / Gunzip.
//
// Building a flate.Writer allocates its match tables — 1.2 MB and 0.66 ms
// for a 1 KiB payload that a Reset writer compresses in 3.6 µs without
// allocating — so the codec *state* is pooled. Only the state: every call
// produces its output in memory of its own (a returned slice is never
// written again), and the bytes are exactly those a fresh writer emits,
// because the encryption / compression / checksum parameters of Table 3
// act on them.

// Deflate levels the applications use.
const (
	BestSpeed       = flate.BestSpeed
	BestCompression = flate.BestCompression
)

var (
	// deflaters holds idle *flate.Writer state per level, indexed by
	// level - flate.HuffmanOnly (the lowest level).
	deflaters  [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool
	gzippers   sync.Pool // *gzip.Writer
	inflaters  sync.Pool // the flate.NewReader value, a flate.Resetter
	gunzippers sync.Pool // *gzip.Reader
)

// Deflate compresses data as one raw DEFLATE stream at level.
func Deflate(level int, data []byte) ([]byte, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("rpcsim: deflate level %d out of range", level)
	}
	pool := &deflaters[level-flate.HuffmanOnly]
	var buf bytes.Buffer
	w, _ := pool.Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(&buf, level); err != nil {
			return nil, err
		}
	} else {
		w.Reset(&buf)
	}
	return writeStream(pool, w, &buf, data)
}

// Gzip compresses data as one gzip member at the default level.
func Gzip(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, _ := gzippers.Get().(*gzip.Writer)
	if w == nil {
		w = gzip.NewWriter(&buf)
	} else {
		w.Reset(&buf)
	}
	return writeStream(&gzippers, w, &buf, data)
}

// writeStream writes data through w, which compresses into buf, ends the
// stream and hands w's state back to pool. A writer that failed is
// dropped, not pooled.
func writeStream(pool *sync.Pool, w io.WriteCloser, buf *bytes.Buffer, data []byte) ([]byte, error) {
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	pool.Put(w)
	return buf.Bytes(), nil
}

// Inflate decompresses one raw DEFLATE stream. Like io.ReadAll it returns
// what was decoded before an error along with the error.
func Inflate(data []byte) ([]byte, error) {
	src := bytes.NewReader(data)
	r, _ := inflaters.Get().(io.Reader)
	if r == nil {
		r = flate.NewReader(src)
	} else if err := r.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, err
	}
	// Pooled whatever the stream does to it: a reader is Reset before
	// every use, which also clears the sticky error a corrupt stream
	// leaves (codec-skew tests feed garbage on purpose).
	defer inflaters.Put(r)
	return io.ReadAll(r)
}

// Gunzip decompresses a gzip stream; bytes that do not start with a gzip
// header fail before anything is decoded.
func Gunzip(data []byte) ([]byte, error) {
	src := bytes.NewReader(data)
	r, _ := gunzippers.Get().(*gzip.Reader)
	if r == nil {
		var err error
		if r, err = gzip.NewReader(src); err != nil {
			return nil, err
		}
	} else if err := r.Reset(src); err != nil {
		gunzippers.Put(r) // Reset again before its next use, as in Inflate
		return nil, err
	}
	defer gunzippers.Put(r)
	return io.ReadAll(r)
}
