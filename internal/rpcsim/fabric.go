package rpcsim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"zebraconf/internal/simtime"
)

// Fabric is an in-memory network: a registry of named endpoints. Each unit
// test environment gets its own fabric, so campaign tests can run
// concurrently in one process.
type Fabric struct {
	mu        sync.RWMutex
	endpoints []*Server // searched in order: a fabric binds a handful
	inline    [8]*Server
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	f := new(Fabric)
	f.Reset()
	return f
}

// Reset unbinds every endpoint, making f an empty fabric as NewFabric
// makes one, for the next execution of an environment whose last one has
// ended: a server of that one is no longer found by Dial, and Closing it
// leaves f alone.
func (f *Fabric) Reset() {
	f.mu.Lock()
	clear(f.inline[:])
	f.endpoints = f.inline[:0]
	f.mu.Unlock()
}

// find returns addr's endpoint, or nil. The caller holds f.mu.
func (f *Fabric) find(addr string) *Server {
	for _, s := range f.endpoints {
		if s.addr == addr {
			return s
		}
	}
	return nil
}

// Handler serves one RPC method call. The payload is the decoded plaintext
// request; the returned bytes are the plaintext response. A returned error
// reaches the client as a call error (an application-level RPC fault).
// The payload's memory serves later calls: a handler must not keep it after
// it returns, though it may return it, or a slice of it, as the response.
type Handler func(method string, payload []byte) ([]byte, error)

// Server is one listening endpoint.
type Server struct {
	fabric  *Fabric
	addr    string
	sec     Security
	scale   *simtime.Scale
	handler Handler

	pingTicks  atomic.Int64 // keepalive interval during in-flight calls
	delayTicks atomic.Int64 // artificial processing delay
	closed     atomic.Bool
}

// Serve registers a new endpoint at addr. It fails if addr is taken.
func (f *Fabric) Serve(addr string, sec Security, scale *simtime.Scale, h Handler) (*Server, error) {
	s := &Server{fabric: f, addr: addr, sec: sec, scale: scale, handler: h}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.find(addr) != nil {
		return nil, fmt.Errorf("rpcsim: address %q already bound", addr)
	}
	f.endpoints = append(f.endpoints, s)
	return s, nil
}

// lookup resolves addr to a live server.
func (f *Fabric) lookup(addr string) (*Server, bool) {
	f.mu.RLock()
	s := f.find(addr)
	f.mu.RUnlock()
	if s == nil || s.closed.Load() {
		return nil, false
	}
	return s, true
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.addr }

// Close unbinds the endpoint; subsequent dials and calls fail with
// ErrUnreachable.
func (s *Server) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.fabric.mu.Lock()
		if i := slices.Index(s.fabric.endpoints, s); i >= 0 {
			s.fabric.endpoints = slices.Delete(s.fabric.endpoints, i, i+1)
		}
		s.fabric.mu.Unlock()
	}
}

// SetPingTicks sets the keepalive ping interval the server emits while a
// call is being processed (the Hadoop IPC ping analog). Zero disables pings.
func (s *Server) SetPingTicks(n int64) { s.pingTicks.Store(n) }

// SetDelayTicks injects fixed processing latency before each handler call.
func (s *Server) SetDelayTicks(n int64) { s.delayTicks.Store(n) }

// Conn is a dialed connection. It is safe for concurrent calls.
type Conn struct {
	srv          *Server
	sec          Security
	scale        *simtime.Scale
	timeoutTicks atomic.Int64
	// handoff: equal profiles that compress nothing, where Decode(Encode(p))
	// is p either way (the keystream is an involution).
	handoff bool
}

// Dial performs the handshake with addr using the client security profile.
// Handshake failures mirror the paper's findings: protection-level skew
// ("Sasl handshake fails"), protocol-version skew, and block-access-token
// skew ("DataNode fails to register block pools").
func (f *Fabric) Dial(addr string, sec Security, scale *simtime.Scale) (*Conn, error) {
	s, ok := f.lookup(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	if s.sec.Protection != sec.Protection {
		return nil, fmt.Errorf("%w: rpc protection %q (client) vs %q (server %s)",
			ErrHandshake, sec.Protection, s.sec.Protection, addr)
	}
	if s.sec.Version != sec.Version {
		return nil, fmt.Errorf("%w: protocol version %d (client) vs %d (server %s)",
			ErrHandshake, sec.Version, s.sec.Version, addr)
	}
	if s.sec.RequireToken != sec.RequireToken {
		return nil, fmt.Errorf("%w: access token required=%v (server %s) vs %v (client)",
			ErrHandshake, s.sec.RequireToken, addr, sec.RequireToken)
	}
	return &Conn{srv: s, sec: sec, scale: scale, handoff: sec == s.sec && sec.Codec == CodecNone}, nil
}

// SetTimeoutTicks bounds each call; zero means no timeout.
func (c *Conn) SetTimeoutTicks(n int64) { c.timeoutTicks.Store(n) }

// Call invokes method on the server. The request is encoded with the
// client's security profile and decoded with the server's (and vice versa
// for the response), so any encryption/compression skew fails exactly at
// the decode step of the mismatched side; on a hand-off no decode can fail,
// and the handler reads a copy of the request and the caller gets the
// handler's response. While the handler runs, the server emits keepalive
// pings every pingTicks; the client resets its timeout on each ping,
// modeling Hadoop IPC's ping mechanism.
//
// The wait is a loop over the earlier of the next ping and the timeout.
// Ties go against the timeout, as a real socket with pending bytes does
// not time out: a ping due on the timeout's tick arrives first and resets
// it, and on the tick the timeout expires the caller yields once, so a
// handler that finishes on that same tick still delivers its result.
func (c *Conn) Call(method string, payload []byte) ([]byte, error) {
	s := c.srv
	if s.closed.Load() {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, s.addr)
	}
	cl := calls.Get().(*call)
	if cl.runFn == nil {
		cl.runFn = cl.run
	}
	if c.handoff {
		if cl.frame == nil {
			cl.frame = make([]byte, 0, len(payload)) // not nil when empty
		}
		cl.frame = append(cl.frame[:0], payload...)
		cl.req = cl.frame
	} else {
		wire, err := Encode(c.sec, payload)
		if err != nil {
			return nil, fmt.Errorf("rpcsim: encode request: %w", err)
		}
		if cl.req, err = decodeOwned(s.sec, wire); err != nil {
			return nil, fmt.Errorf("server %s rejected request: %w", s.addr, err)
		}
	}
	cl.srv, cl.method = s, method
	if cl.done = &cl.sig; !c.scale.Reuse(cl.done) {
		cl.done = c.scale.NewSignal()
	}
	cl.holds.Store(2)
	s.scale.Go(cl.runFn)

	ping, tout := s.pingTicks.Load(), c.timeoutTicks.Load()
	now := c.scale.Now()
	nextPing, deadline := now+ping, now+tout
	for {
		wait, pingNext := simtime.Forever, false
		if tout > 0 {
			wait = deadline - now
		}
		if ping > 0 && tout > 0 && nextPing-now <= wait {
			wait, pingNext = nextPing-now, true
		}
		if c.scale.Wait(wait, cl.done) {
			break
		}
		now = c.scale.Now()
		if pingNext {
			nextPing, deadline = nextPing+ping, now+tout
			continue
		}
		if c.scale.Wait(0, cl.done) {
			break
		}
		cl.release()
		return nil, fmt.Errorf("%w: %s.%s after %d ticks", ErrTimeout, s.addr, method, tout)
	}
	resp, err := cl.resp, cl.err
	if c.handoff && inFrame(resp, cl.frame) {
		cl.frame = nil // the caller keeps it
	}
	cl.release()
	if err != nil {
		return nil, err
	}
	if c.handoff {
		if resp == nil {
			resp = []byte{}
		}
		return resp, nil
	}
	respWire, err := Encode(s.sec, resp)
	if err != nil {
		return nil, fmt.Errorf("server %s: encode response: %w", s.addr, err)
	}
	if resp, err = decodeOwned(c.sec, respWire); err != nil {
		return nil, fmt.Errorf("decode response from %s: %w", s.addr, err)
	}
	return resp, nil
}

// calls recycles calls with their frames and signals.
var calls = sync.Pool{New: func() any { return new(call) }}

// call is one request in flight: what the server's goroutine runs, and
// what it leaves for the caller once done fires. The caller and that
// goroutine each hold it and the last to let go returns it to calls; a
// goroutine that Shutdown ends never lets go.
type call struct {
	holds  atomic.Int32
	srv    *Server
	method string
	req    []byte
	resp   []byte
	err    error
	done   *simtime.Signal // &sig wherever the Scale can re-arm it
	runFn  func()          // run, bound once
	frame  []byte          // the request's memory on a hand-off
	sig    simtime.Signal
}

func (cl *call) run() {
	cl.srv.scale.Sleep(cl.srv.delayTicks.Load())
	cl.resp, cl.err = cl.srv.handler(cl.method, cl.req)
	cl.done.Fire()
	cl.release()
}

// release lets go of the caller's or the handler's hold on cl.
func (cl *call) release() {
	if cl.holds.Add(-1) != 0 {
		return
	}
	if cap(cl.frame) > 64<<10 { // not kept for the next call
		cl.frame = nil
	}
	cl.srv, cl.method, cl.req, cl.resp, cl.err, cl.done = nil, "", nil, nil, nil, nil
	calls.Put(cl)
}

// inFrame reports whether b starts in frame's memory.
func inFrame(b, frame []byte) bool {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return cap(b) > 0 && p >= base && p < base+uintptr(cap(frame))
}
