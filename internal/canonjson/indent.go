package canonjson

import "io"

// indentBufSize is the size of an Indenter's buffer: the most it holds
// before it writes.
const indentBufSize = 8 << 10

// Indenter lays out the compact JSON written to it as json.Indent does with
// no prefix and an indent of two spaces, and writes the result to an
// underlying writer: each element and member on a line of its own, a space
// after each key's colon, an empty object or array kept as {} or []. A
// byte outside a string that is not part of the structure, such as the
// newline json.Encoder writes after a value, passes through as it is. So
// json.Encoder's bytes written to an Indenter are the bytes an Encoder
// with SetIndent("", "  ") writes, but the indented document is never
// held: the input may arrive in pieces of any size, and the output leaves
// through one small buffer. Flush writes out what is buffered.
type Indenter struct {
	w     io.Writer
	buf   []byte
	err   error
	depth int
	// open is set after a '{' or '[' whose line break waits for what
	// follows: none, if it closes at once.
	open              bool
	inString, escaped bool
}

// NewIndenter returns an Indenter writing to w.
func NewIndenter(w io.Writer) *Indenter {
	return &Indenter{w: w, buf: make([]byte, 0, indentBufSize)}
}

// Write indents p. It stops at the first error from the underlying
// writer, and returns that error from then on.
func (x *Indenter) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if len(x.buf) >= indentBufSize {
			_ = x.Flush() // its error is x.err
		}
		if x.err != nil {
			return i, x.err
		}
		switch c := p[i]; {
		case !x.inString:
			x.structure(c)
		case x.escaped:
			x.escaped = false
			x.buf = append(x.buf, c)
		case c == '\\':
			x.escaped = true
			x.buf = append(x.buf, c)
		case c == '"':
			x.inString = false
			x.buf = append(x.buf, c)
		default:
			// A run of the string's plain bytes, as far as the buffer
			// has room, is copied at once.
			j, n := i+1, min(len(p), i+indentBufSize-len(x.buf))
			for j < n && p[j] != '"' && p[j] != '\\' {
				j++
			}
			x.buf = append(x.buf, p[i:j]...)
			i = j
			continue
		}
		i++
	}
	return len(p), nil
}

// structure writes c, a byte outside any string, with the layout around
// it.
func (x *Indenter) structure(c byte) {
	closing := c == '}' || c == ']'
	switch {
	case x.open && !closing:
		x.depth++
		x.newline()
	case closing && !x.open:
		x.depth--
		x.newline()
	}
	x.open = false
	x.buf = append(x.buf, c)
	switch c {
	case '"':
		x.inString = true
	case '{', '[':
		x.open = true
	case ',':
		x.newline()
	case ':':
		x.buf = append(x.buf, ' ')
	}
}

func (x *Indenter) newline() {
	x.buf = append(x.buf, '\n')
	for i := 0; i < x.depth; i++ {
		x.buf = append(x.buf, ' ', ' ')
	}
}

// Flush writes out what is buffered, and reports the first error the
// underlying writer returned.
func (x *Indenter) Flush() error {
	if x.err == nil && len(x.buf) > 0 {
		_, x.err = x.w.Write(x.buf)
	}
	x.buf = x.buf[:0]
	return x.err
}
