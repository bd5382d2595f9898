// Package rpcsim provides the in-memory RPC fabric the mini applications
// communicate over.
//
// ZebraConf's findings (paper Table 3) are dominated by parameters that
// change the bytes two nodes exchange: encryption, compression, transport
// protection, protocol framing. For a Go reproduction those failures must
// arise mechanically, not from hand-written "if configs differ then fail"
// checks — so every payload really is transformed: compressed with a real
// codec, encrypted with a keystream cipher, wrapped in magic-tagged headers.
// A node decodes incoming bytes according to its own configuration, exactly
// like a real system; when the sender's configuration differs, decoding
// fails with the same class of error the paper reports ("invalid SSL/TLS
// record", "incorrect header", "Sasl handshake fails").
package rpcsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Codec names. CodecNone disables compression; CodecDeflate uses DEFLATE;
// CodecRLE uses a byte-level run-length encoding (the "second codec" needed
// to reproduce codec-mismatch bugs such as map.output.compress.codec).
const (
	CodecNone    = ""
	CodecDeflate = "deflate"
	CodecRLE     = "rle"
)

// Security describes one endpoint's transport configuration. Each side
// encodes what it sends and decodes what it receives using its own Security;
// heterogeneous values surface as wire errors.
type Security struct {
	// Protection is the SASL-like RPC protection level, compared during the
	// handshake (e.g. "authentication", "integrity", "privacy").
	Protection string
	// Key is the keystream seed shared by correctly configured clusters.
	Key string
	// Codec compresses payloads: CodecNone, CodecDeflate, or CodecRLE.
	Codec string
	// Version is the protocol version, compared during the handshake.
	Version int
	// Encrypt enables payload encryption (the SSL/TLS analog).
	Encrypt bool
	// RequireToken demands a block-access-token-like credential; a client
	// that does not present one cannot register (Table 3:
	// dfs.block.access.token.enable).
	RequireToken bool
}

// payload framing magic values.
var (
	magicPlain = []byte{0x5A, 0x43} // "ZC": start of plaintext payload
	magicCMP   = []byte{0x43, 0x4D} // "CM": compressed payload header
)

// Wire errors. They are matched by class, so tests can assert the same
// failure categories the paper's Table 3 names.
var (
	ErrBadRecord    = errors.New("rpcsim: invalid record (encryption mismatch?)")
	ErrBadHeader    = errors.New("rpcsim: incorrect payload header (compression mismatch?)")
	ErrUnknownCodec = errors.New("rpcsim: unknown codec in payload header")
	ErrHandshake    = errors.New("rpcsim: handshake failed")
	ErrTimeout      = errors.New("rpcsim: call timed out")
	ErrUnreachable  = errors.New("rpcsim: endpoint unreachable")
)

// Encode converts a plaintext payload into wire bytes according to sec:
// plaintext -> magic-tagged -> compressed (optional) -> encrypted (optional).
// The result is a new frame; payload is not retained.
func Encode(sec Security, payload []byte) ([]byte, error) {
	body := make([]byte, 0, len(payload)+8)
	body = append(body, magicPlain...)
	body = binary.BigEndian.AppendUint32(body, uint32(len(payload)))
	body = append(body, payload...)

	if sec.Codec != CodecNone {
		compressed, err := compress(sec.Codec, body)
		if err != nil {
			return nil, err
		}
		framed := make([]byte, 0, len(compressed)+3)
		framed = append(framed, magicCMP...)
		framed = append(framed, codecByte(sec.Codec))
		framed = append(framed, compressed...)
		body = framed
	}
	if sec.Encrypt {
		xorInto(sec.Key, body, body)
	}
	return body, nil
}

// Decode reverses Encode according to the receiver's sec. When the sender
// used different settings, it fails with ErrBadRecord (encryption skew),
// ErrBadHeader (compression skew), or ErrUnknownCodec (codec skew). wire is
// left as it was.
func Decode(sec Security, wire []byte) ([]byte, error) {
	if sec.Encrypt {
		wire = xorKeystream(sec.Key, wire)
	}
	return unframe(sec, wire)
}

// decodeOwned is Decode for a frame no one else holds: it decrypts in
// place, and what it returns may share the frame's memory.
func decodeOwned(sec Security, frame []byte) ([]byte, error) {
	if sec.Encrypt {
		xorInto(sec.Key, frame, frame)
	}
	return unframe(sec, frame)
}

// unframe reverses Encode's framing and compression on decrypted bytes.
func unframe(sec Security, body []byte) ([]byte, error) {
	if sec.Codec != CodecNone {
		if len(body) < 3 || !bytes.Equal(body[:2], magicCMP) {
			// Expected a compressed stream; if the bytes happen to carry
			// the plaintext magic, the peer simply did not compress.
			if len(body) >= 2 && bytes.Equal(body[:2], magicPlain) {
				return nil, fmt.Errorf("%w: expected compressed stream, got plain", ErrBadHeader)
			}
			return nil, ErrBadRecord
		}
		algo := codecName(body[2])
		if algo == "" {
			return nil, ErrUnknownCodec
		}
		if algo != sec.Codec {
			return nil, fmt.Errorf("%w: stream codec %q, configured %q", ErrUnknownCodec, algo, sec.Codec)
		}
		var err error
		body, err = decompress(algo, body[3:])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
		}
	}
	if len(body) < 6 || !bytes.Equal(body[:2], magicPlain) {
		if len(body) >= 2 && bytes.Equal(body[:2], magicCMP) {
			return nil, fmt.Errorf("%w: unexpected compressed stream", ErrBadHeader)
		}
		return nil, ErrBadRecord
	}
	n := binary.BigEndian.Uint32(body[2:6])
	if int(n) != len(body)-6 {
		return nil, fmt.Errorf("%w: length %d, have %d", ErrBadRecord, n, len(body)-6)
	}
	return body[6:], nil
}

// xorKeystream applies a position-dependent keystream derived from key.
// It is an involution: applying it twice with the same key restores the
// input; applying it with a different key (or once) yields garbage.
func xorKeystream(key string, data []byte) []byte {
	return xorInto(key, make([]byte, len(data)), data)
}

// xorInto writes src under key's keystream to dst, which has src's length
// and may be src itself.
func xorInto(key string, dst, src []byte) []byte {
	// FNV-style rolling state seeded by the key.
	var state uint64 = 1469598103934665603
	for i := 0; i < len(key); i++ {
		state ^= uint64(key[i])
		state *= 1099511628211
	}
	seed := state
	for i := range src {
		s := seed ^ uint64(i)*0x9E3779B97F4A7C15
		s ^= s >> 33
		s *= 0xFF51AFD7ED558CCD
		s ^= s >> 33
		dst[i] = src[i] ^ byte(s)
	}
	return dst
}

func codecByte(name string) byte {
	switch name {
	case CodecDeflate:
		return 1
	case CodecRLE:
		return 2
	default:
		return 0
	}
}

func codecName(b byte) string {
	switch b {
	case 1:
		return CodecDeflate
	case 2:
		return CodecRLE
	default:
		return ""
	}
}

func compress(codec string, data []byte) ([]byte, error) {
	switch codec {
	case CodecDeflate:
		return Deflate(BestSpeed, data)
	case CodecRLE:
		return rleEncode(data), nil
	default:
		return nil, fmt.Errorf("rpcsim: compress with unknown codec %q", codec)
	}
}

func decompress(codec string, data []byte) ([]byte, error) {
	switch codec {
	case CodecDeflate:
		return Inflate(data)
	case CodecRLE:
		return rleDecode(data)
	default:
		return nil, fmt.Errorf("rpcsim: decompress with unknown codec %q", codec)
	}
}

// rleEncode emits (count, byte) pairs with counts capped at 255.
func rleEncode(data []byte) []byte {
	var out []byte
	for i := 0; i < len(data); {
		b := data[i]
		n := 1
		for i+n < len(data) && data[i+n] == b && n < 255 {
			n++
		}
		out = append(out, byte(n), b)
		i += n
	}
	return out
}

func rleDecode(data []byte) ([]byte, error) {
	if len(data)%2 != 0 {
		return nil, errors.New("rpcsim: truncated RLE stream")
	}
	var out []byte
	for i := 0; i < len(data); i += 2 {
		n := int(data[i])
		if n == 0 {
			return nil, errors.New("rpcsim: zero-length RLE run")
		}
		for j := 0; j < n; j++ {
			out = append(out, data[i+1])
		}
	}
	return out, nil
}
