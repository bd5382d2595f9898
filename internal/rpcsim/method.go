package rpcsim

import (
	"encoding/json"
	"fmt"
)

// Method declares one RPC: its name on the wire and the types of its
// request and response bodies. A mini system declares each of its RPCs
// once, next to the message types; the client calls through the
// declaration and the server registers a handler on it, so the two cannot
// disagree about the name or either type. Bodies are JSON, and this file
// is the only place that says so.
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

// Call performs the RPC on c. Errors returned by the server's handler
// reach the caller as they are.
func (m Method[Req, Resp]) Call(c *Conn, req Req) (resp Resp, err error) {
	body := emptyBody
	if !isEmpty[Req]() {
		if body, err = json.Marshal(req); err != nil {
			return resp, fmt.Errorf("rpcsim: marshal %s request: %w", m.Name, err)
		}
	}
	out, err := c.Call(m.Name, body)
	if err != nil || isEmpty[Resp]() {
		return resp, err
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return resp, fmt.Errorf("rpcsim: unmarshal %s response: %w", m.Name, err)
	}
	return resp, nil
}

// Serve registers fn on t as the handler of the RPC.
func (m Method[Req, Resp]) Serve(t *Table, fn func(*Req) (Resp, error)) {
	noReq, noResp := isEmpty[Req](), isEmpty[Resp]()
	t.add(m.Name, func(payload []byte) ([]byte, error) {
		var req Req
		if !noReq {
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("rpcsim: bad %s request: %w", m.Name, err)
			}
		}
		resp, err := fn(&req)
		if err != nil {
			return nil, err
		}
		if noResp {
			return emptyBody, nil
		}
		return json.Marshal(resp)
	})
}

// Call performs the RPC on c and discards the empty response.
func (m Command[Req]) Call(c *Conn, req Req) error {
	_, err := Method[Req, Empty](m).Call(c, req)
	return err
}

// Serve registers fn on t as the handler of the RPC.
func (m Command[Req]) Serve(t *Table, fn func(*Req) error) {
	Method[Req, Empty](m).Serve(t, func(req *Req) (Empty, error) { return Empty{}, fn(req) })
}

// Table is the set of RPCs one node serves. It is filled by the node's
// constructor, before the endpoint is bound, and only read afterwards.
type Table struct {
	node    string
	methods map[string]func(payload []byte) ([]byte, error)
}

// NewTable returns an empty table. node names the server in the error a
// caller of an unregistered method receives.
func NewTable(node string) *Table {
	return &Table{node: node, methods: make(map[string]func([]byte) ([]byte, error))}
}

func (t *Table) add(name string, h func([]byte) ([]byte, error)) {
	if _, dup := t.methods[name]; dup {
		panic(fmt.Sprintf("rpcsim: %s: method %q registered twice", t.node, name))
	}
	t.methods[name] = h
}

// Handle dispatches one call; it is the Handler to bind the node's
// endpoint with.
func (t *Table) Handle(method string, payload []byte) ([]byte, error) {
	h, ok := t.methods[method]
	if !ok {
		return nil, fmt.Errorf("%s: unknown method %q", t.node, method)
	}
	return h(payload)
}
