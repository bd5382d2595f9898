package rpcsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"zebraconf/internal/canonjson"
)

// Method declares one RPC: its name on the wire and the types of its
// request and response bodies. A mini system declares each of its RPCs
// once, next to the message types; the client calls through the
// declaration and the server handles it through a Service, so the two
// cannot disagree about the name or either type. Bodies are the bytes
// json.Marshal writes, built and parsed by internal/canonjson. They must
// not change: Table 3's encryption, compression and checksum parameters
// act on them.
type Method[Req, Resp any] struct{ Name string }

// Command is a Method whose response carries nothing but success.
type Command[Req any] struct{ Name string }

// Empty is a body that carries nothing: it is written as "{}" and the
// receiving side does not parse it.
type Empty struct{}

var emptyBody = []byte("{}")

func isEmpty[T any]() bool {
	_, ok := any((*T)(nil)).(*Empty)
	return ok
}

// requestBufs holds the buffers request bodies are built in. A body is
// dead once Conn.Call has copied it into the request's frame.
var requestBufs = sync.Pool{New: func() any { return new([]byte) }}

// Call performs the RPC on c. Errors returned by the server's handler
// reach the caller as they are.
func (m Method[Req, Resp]) Call(c *Conn, req Req) (resp Resp, err error) {
	var out []byte
	if isEmpty[Req]() {
		out, err = c.Call(m.Name, emptyBody)
	} else {
		buf := requestBufs.Get().(*[]byte)
		if *buf, err = canonjson.Append((*buf)[:0], &req); err != nil {
			err = fmt.Errorf("rpcsim: marshal %s request: %w", m.Name, err)
		} else {
			out, err = c.Call(m.Name, *buf)
		}
		requestBufs.Put(buf)
	}
	if err != nil || isEmpty[Resp]() {
		return resp, err
	}
	if err := canonjson.Decode(out, &resp, nil); err != nil {
		return resp, fmt.Errorf("rpcsim: unmarshal %s response: %w", m.Name, err)
	}
	return resp, nil
}

// Call performs the RPC on c and discards the empty response.
func (m Command[Req]) Call(c *Conn, req Req) error {
	_, err := Method[Req, Empty](m).Call(c, req)
	return err
}

// Service is the set of RPCs one node type N serves. It is declared once,
// next to N's Methods, and filled at package initialisation by Handle and
// HandleCommand; Bind then serves it for one node. A Service is only read
// once filled, so every node of every execution shares it.
type Service[N any] struct {
	methods []serviceMethod[N]
}

type serviceMethod[N any] struct {
	name  string
	serve func(n *N, payload []byte) ([]byte, error)
}

// Handle adds m to svc, served by fn: usually a method expression such as
// (*NameNode).heartbeat. It builds the codecs of both bodies, so a wire
// type outside the supported set panics here, naming the type and field.
func Handle[N, Req, Resp any](svc *Service[N], m Method[Req, Resp], fn func(*N, *Req) (Resp, error)) {
	noReq, noResp := isEmpty[Req](), isEmpty[Resp]()
	if !noReq {
		canonjson.Prepare[Req]()
	}
	if !noResp {
		canonjson.Prepare[Resp]()
	}
	// size is the length of the last response: the capacity the next one's
	// buffer starts with.
	var size atomic.Int64
	svc.add(m.Name, func(n *N, payload []byte) ([]byte, error) {
		var req Req
		if !noReq {
			if err := canonjson.Decode(payload, &req, nil); err != nil {
				return nil, fmt.Errorf("rpcsim: bad %s request: %w", m.Name, err)
			}
		}
		resp, err := fn(n, &req)
		if err != nil {
			return nil, err
		}
		if noResp {
			return emptyBody, nil
		}
		body, err := canonjson.Append(make([]byte, 0, size.Load()), &resp)
		if err != nil {
			return nil, fmt.Errorf("rpcsim: marshal %s response: %w", m.Name, err)
		}
		size.Store(int64(len(body)))
		return body, nil
	})
}

// HandleCommand adds m to svc, served by fn.
func HandleCommand[N, Req any](svc *Service[N], m Command[Req], fn func(*N, *Req) error) {
	Handle(svc, Method[Req, Empty](m), func(n *N, req *Req) (Empty, error) { return Empty{}, fn(n, req) })
}

func (svc *Service[N]) add(name string, serve func(*N, []byte) ([]byte, error)) {
	for _, m := range svc.methods {
		if m.name == name {
			panic(fmt.Sprintf("rpcsim: method %q registered twice", name))
		}
	}
	svc.methods = append(svc.methods, serviceMethod[N]{name, serve})
}

// Bind returns the Handler that serves svc for n; it is the node's
// endpoint handler. node names the server in the error a caller of a
// method svc does not serve receives.
func (svc *Service[N]) Bind(node string, n *N) Handler {
	return func(method string, payload []byte) ([]byte, error) {
		for i := range svc.methods {
			if svc.methods[i].name == method {
				return svc.methods[i].serve(n, payload)
			}
		}
		return nil, fmt.Errorf("%s: unknown method %q", node, method)
	}
}
