package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zebraconf/internal/core/harness"
	"zebraconf/internal/obs"
)

// helloTimeout bounds the TCP handshake: a connection that hasn't
// produced a complete hello line (or accepted the welcome) within it is
// dropped. Keeps half-open scanners from pinning goroutines.
const helloTimeout = 10 * time.Second

// maxHelloLine bounds the first line read off an unauthenticated
// connection, so garbage can't balloon memory before the token check.
const maxHelloLine = 64 << 10

// errGatewayClosed tells a coordinator slot that no networked worker
// will ever arrive: the gateway is shut down.
var errGatewayClosed = errors.New("dist: worker gateway closed")

// errAcquireStopped ends an Acquire wait because the run stopped first.
var errAcquireStopped = errors.New("dist: session acquire aborted: run stopped")

// ErrAuthRejected is returned by ConnectWorker when the gateway refuses
// the handshake; redialing with the same credentials cannot succeed.
var ErrAuthRejected = errors.New("dist: gateway rejected worker")

// Gateway accepts `zebraconf -worker -connect` TCP connections, runs
// the hello/welcome token handshake, and parks authenticated workers in
// an idle pool until a coordinator leases them via Acquire — the
// networked replacement for spawning worker subprocesses. A leased
// session speaks exactly the stdio NDJSON protocol framed onto the
// connection; when the campaign releases it (bye or kill closes the
// connection) the worker redials and parks fresh, so worker lifecycle
// stays trivially simple: one connection, at most one campaign.
type Gateway struct {
	ln    net.Listener
	token string
	o     *obs.Observer

	admitted  atomic.Int64
	authFails atomic.Int64

	mu      sync.Mutex
	closed  bool
	idle    []*gatewayWorker
	waiters []chan *gatewayWorker
}

// gatewayWorker is one parked (or in-handoff) authenticated worker. A
// monitor goroutine watches the session while idle: a parked worker
// must be silent, so any read — a message or the EOF of a died peer —
// marks it dead and discards it. lease() stops the monitor and reports
// whether the worker is still usable; the ordering guarantees the
// monitor can no longer consume protocol messages once the coordinator
// owns the session.
type gatewayWorker struct {
	sess        *workerSession
	leased      chan struct{}
	monitorDone chan struct{}
	dead        bool
}

func (w *gatewayWorker) monitor(g *Gateway) {
	defer close(w.monitorDone)
	select {
	case <-w.sess.msgs:
		// An idle worker has nothing to say; a message means it lost
		// protocol framing, and a channel close means it disconnected.
		w.dead = true
		g.discard(w)
	case <-w.leased:
	}
}

// lease transfers session ownership from the monitor to the caller.
func (w *gatewayWorker) lease() bool {
	close(w.leased)
	<-w.monitorDone
	return !w.dead
}

// GatewayStats is the point-in-time gateway snapshot served by the
// campaign server's /api/status.
type GatewayStats struct {
	WorkersAdmitted int64 `json:"workers_admitted"`
	AuthFailures    int64 `json:"auth_failures"`
	WorkersIdle     int   `json:"workers_idle"`
}

// ListenGateway opens a worker gateway on addr. token guards admission;
// empty means unauthenticated (loopback testing only). o may be nil.
func ListenGateway(addr, token string, o *obs.Observer) (*Gateway, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: gateway listen: %w", err)
	}
	g := &Gateway{ln: ln, token: token, o: o}
	go g.acceptLoop()
	return g, nil
}

// Addr is the gateway's bound listen address (useful with ":0").
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Stats snapshots the gateway counters.
func (g *Gateway) Stats() GatewayStats {
	g.mu.Lock()
	idle := len(g.idle)
	g.mu.Unlock()
	return GatewayStats{
		WorkersAdmitted: g.admitted.Load(),
		AuthFailures:    g.authFails.Load(),
		WorkersIdle:     idle,
	}
}

// Close shuts the gateway: stop accepting, fail pending Acquires, drop
// idle workers (their redial loops will then also fail and back off).
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	idle := g.idle
	waiters := g.waiters
	g.idle, g.waiters = nil, nil
	g.mu.Unlock()
	err := g.ln.Close()
	for _, ch := range waiters {
		ch <- nil
	}
	for _, w := range idle {
		w.sess.kill()
	}
	g.o.GaugeSet(obs.MGatewayIdle, 0)
	return err
}

func (g *Gateway) acceptLoop() {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return
		}
		go g.admit(conn)
	}
}

// admit runs the handshake on one fresh connection. Every failure mode
// before the welcome — timeout, garbage, wrong token — counts as an
// auth failure and closes the connection.
func (g *Gateway) admit(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(helloTimeout))
	// reject counts before it replies: the worker acts on the reply at
	// once, and the failure must be on the books by then.
	reject := func(reply string) {
		g.authFails.Add(1)
		g.o.CounterAdd(obs.MGatewayAuthFailures, 1)
		if reply != "" {
			writeMsg(conn, Msg{Type: MsgWelcome, Error: reply})
		}
		conn.Close()
	}
	line, err := readLine(conn, maxHelloLine)
	if err != nil {
		reject("")
		return
	}
	var hello Msg
	if json.Unmarshal(line, &hello) != nil || hello.Type != MsgHello {
		reject("")
		return
	}
	if g.token != "" && hello.Token != g.token {
		// Tell the worker why before hanging up, so its operator sees
		// "rejected" instead of a silent reconnect loop.
		reject("authentication failed")
		return
	}
	if writeMsg(conn, Msg{Type: MsgWelcome}) != nil {
		reject("")
		return
	}
	conn.SetDeadline(time.Time{})
	g.admitted.Add(1)
	g.o.CounterAdd(obs.MGatewayWorkers, 1)
	s := &workerSession{
		w:          conn,
		msgs:       make(chan Msg, 64),
		readerDone: make(chan struct{}),
		pid:        hello.PID,
		remote:     conn.RemoteAddr().String(),
		teardown:   func() { conn.Close() },
	}
	go s.readLoop(conn)
	w := &gatewayWorker{sess: s, leased: make(chan struct{}), monitorDone: make(chan struct{})}
	go w.monitor(g)
	g.park(w)
}

// park routes a worker to a pending Acquire, or into the idle pool.
func (g *Gateway) park(w *gatewayWorker) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		w.sess.kill()
		return
	}
	if len(g.waiters) > 0 {
		ch := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.mu.Unlock()
		ch <- w
		return
	}
	g.idle = append(g.idle, w)
	n := len(g.idle)
	g.mu.Unlock()
	g.o.GaugeSet(obs.MGatewayIdle, int64(n))
}

// discard drops a worker that died while idle.
func (g *Gateway) discard(w *gatewayWorker) {
	g.mu.Lock()
	for i, cand := range g.idle {
		if cand == w {
			g.idle = append(g.idle[:i], g.idle[i+1:]...)
			break
		}
	}
	n := len(g.idle)
	g.mu.Unlock()
	g.o.GaugeSet(obs.MGatewayIdle, int64(n))
	w.sess.kill()
}

// Acquire leases the next available worker session, blocking until one
// connects, stop closes (errAcquireStopped), or the gateway shuts down
// (errGatewayClosed). Called by coordinator slot supervisors.
func (g *Gateway) Acquire(stop <-chan struct{}) (*workerSession, error) {
	for {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return nil, errGatewayClosed
		}
		if len(g.idle) > 0 {
			w := g.idle[0]
			g.idle = g.idle[1:]
			n := len(g.idle)
			g.mu.Unlock()
			g.o.GaugeSet(obs.MGatewayIdle, int64(n))
			if w.lease() {
				return w.sess, nil
			}
			// Died in the handoff window; its monitor already killed it.
			continue
		}
		ch := make(chan *gatewayWorker, 1)
		g.waiters = append(g.waiters, ch)
		g.mu.Unlock()
		select {
		case w := <-ch:
			if w == nil {
				return nil, errGatewayClosed
			}
			if w.lease() {
				return w.sess, nil
			}
		case <-stop:
			g.mu.Lock()
			for i, cand := range g.waiters {
				if cand == ch {
					g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
					break
				}
			}
			g.mu.Unlock()
			// A worker may have been delivered in the race window;
			// return it to the pool rather than stranding it.
			select {
			case w := <-ch:
				if w != nil {
					g.park(w)
				}
			default:
			}
			return nil, errAcquireStopped
		}
	}
}

// ConnectOptions configures ConnectWorker.
type ConnectOptions struct {
	// Token authenticates against the gateway.
	Token string
	// Env carries this machine's local settings (disk cache location).
	Env WorkerEnv
	// Logw, when non-nil, receives connection lifecycle lines.
	Logw io.Writer
	// Stop, when non-nil, ends the dial loop at the next reconnect
	// boundary (between campaigns, or during backoff).
	Stop <-chan struct{}
}

// ConnectWorker is the `zebraconf -worker -connect` loop: dial the
// gateway, handshake, serve exactly one campaign session, reconnect.
// Dial failures back off exponentially (capped); an authentication
// rejection is fatal — retrying cannot help and would hammer the
// gateway.
func ConnectWorker(addr string, opts ConnectOptions, resolve func(string) (*harness.App, error)) error {
	logf := func(format string, args ...any) {
		if opts.Logw != nil {
			fmt.Fprintf(opts.Logw, "zebraconf worker: "+format+"\n", args...)
		}
	}
	backoff := 200 * time.Millisecond
	const maxBackoff = 5 * time.Second
	wait := func() bool {
		select {
		case <-time.After(backoff):
		case <-opts.Stop:
			return false
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
		return true
	}
	for {
		select {
		case <-opts.Stop:
			return nil
		default:
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			logf("dial %s: %v (retrying)", addr, err)
			if !wait() {
				return nil
			}
			continue
		}
		if err := clientHello(conn, opts.Token); err != nil {
			conn.Close()
			if errors.Is(err, ErrAuthRejected) {
				logf("%v", err)
				return err
			}
			logf("handshake with %s: %v (retrying)", addr, err)
			if !wait() {
				return nil
			}
			continue
		}
		backoff = 200 * time.Millisecond
		logf("connected to %s, awaiting campaign", addr)
		err = ServeWorkerEnv(conn, conn, resolve, opts.Env)
		conn.Close()
		if err != nil {
			logf("session ended: %v", err)
		} else {
			logf("session ended cleanly")
		}
	}
}

// clientHello runs the worker side of the handshake on a fresh
// connection: send hello, await welcome, under one deadline.
func clientHello(conn net.Conn, token string) error {
	conn.SetDeadline(time.Now().Add(helloTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := writeMsg(conn, Msg{Type: MsgHello, Token: token, PID: os.Getpid()}); err != nil {
		return err
	}
	line, err := readLine(conn, maxHelloLine)
	if err != nil {
		return err
	}
	var welcome Msg
	if err := json.Unmarshal(line, &welcome); err != nil {
		return err
	}
	if welcome.Type != MsgWelcome {
		return fmt.Errorf("dist: expected welcome, got %q", welcome.Type)
	}
	if welcome.Error != "" {
		return fmt.Errorf("%w: %s", ErrAuthRejected, welcome.Error)
	}
	return nil
}

// readLine reads one \n-terminated line directly off conn, byte at a
// time, without buffering ahead — the caller hands the connection to a
// buffered protocol reader right after the handshake, so the handshake
// must not consume bytes beyond its own line.
func readLine(conn net.Conn, max int) ([]byte, error) {
	buf := make([]byte, 0, 256)
	b := make([]byte, 1)
	for len(buf) < max {
		if _, err := io.ReadFull(conn, b); err != nil {
			return nil, err
		}
		if b[0] == '\n' {
			return buf, nil
		}
		buf = append(buf, b[0])
	}
	return nil, errors.New("dist: handshake line too long")
}

func writeMsg(w io.Writer, m Msg) error {
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}
