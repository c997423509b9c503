package netsim

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport implements Transport over real TCP sockets (loopback in
// tests, any network in principle). It exists so the runtime layers are
// genuinely message-oriented: the same migration protocol that runs over
// the simulated fabric runs unchanged over sockets. Bandwidth is whatever
// the kernel gives; experiments that need controlled bandwidth use the
// simulated Network.
//
// Framing: every message is
//
//	[1B kind][1B flags][8B correlation id][4B length][payload]
//
// flags bit0 = reply, bit1 = error-reply (payload is the error string).
// A fresh connection starts with an 8-byte hello carrying the dialer's
// node id; the accepter answers with its own 8-byte hello, so Connect
// discovers the peer's id from the handshake (daemons join by address,
// not by pre-shared id).
//
// Delivery failures wrap ErrUnreachable so the crash classifiers in the
// runtime layers treat a dead socket exactly like a dead simulated node.
type TCPTransport struct {
	id int

	mu       sync.Mutex
	handlers map[MsgKind]Handler
	peers    map[int]*tcpConn
	waiting  map[uint64]*tcpPending
	listener net.Listener

	corr      atomic.Uint64
	inbox     inbox // one-way frames, in order per (peer, kind)
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// Tunables for Connect's dial retry (fixed; fields so tests can
	// shorten them).
	dialBackoff time.Duration
	dialMax     time.Duration

	// CallTimeout, when non-zero, bounds how long a Call waits for its
	// reply. A connection that *dies* already fails pending calls via
	// dropConn; the timeout covers the remaining case — a peer whose
	// socket stays open but which never answers (stopped process,
	// packet-dropping partition) — so a caller's loop cannot wedge on a
	// zombie. Set it before the transport is shared across goroutines.
	CallTimeout time.Duration

	// peerDown, when set, is invoked (on the dying connection's goroutine)
	// each time an established peer connection is torn down — by the peer
	// closing, a network error, or this transport's own Close. Streaming
	// consumers (the control client's watch channels) use it to end
	// subscriptions that would otherwise wait forever.
	peerDown func(peer int)
}

// SetPeerDownHook registers fn to run whenever an established connection
// dies. Set it before the transport is shared across goroutines.
func (t *TCPTransport) SetPeerDownHook(fn func(peer int)) {
	t.mu.Lock()
	t.peerDown = fn
	t.mu.Unlock()
}

// SetDialWindow tunes Connect's retry backoff and give-up deadline
// (defaults: 10ms doubling, 5s). Control clients probing possibly-dead
// daemons shorten it so a dead address fails fast.
func (t *TCPTransport) SetDialWindow(backoff, max time.Duration) {
	if backoff > 0 {
		t.dialBackoff = backoff
	}
	if max > 0 {
		t.dialMax = max
	}
}

// MaxFrameBytes bounds a single framed message on the TCP transport, in
// both directions: writers refuse to send larger frames and the read loop
// refuses to allocate for a length prefix above it (a corrupt or hostile
// prefix would otherwise make the receiver allocate gigabytes before the
// first payload byte arrives, or — worse — a frame whose length field
// overflowed uint32 would desynchronize the stream and hang every pending
// call). 64 MiB comfortably covers whole-stack migrations with bundled
// classes while still catching garbage prefixes.
const MaxFrameBytes = 64 << 20

// ErrFrameTooLarge: a message exceeded MaxFrameBytes. Deliberately NOT
// wrapped in ErrUnreachable — the peer is fine, the payload is the
// problem, and the crash classifiers must not treat it as a dead node.
var ErrFrameTooLarge = fmt.Errorf("tcp: frame exceeds %d-byte limit", MaxFrameBytes)

// tcpConn wraps one established connection; mu serializes frame writes.
type tcpConn struct {
	mu     sync.Mutex
	conn   net.Conn
	dialed bool // established by this node's Connect (vs accepted inbound)
}

func (c *tcpConn) writeFrame(kind MsgKind, flags byte, corr uint64, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("refusing %d-byte frame: %w", len(payload), ErrFrameTooLarge)
	}
	hdr := make([]byte, 14)
	hdr[0] = byte(kind)
	hdr[1] = flags
	binary.LittleEndian.PutUint64(hdr[2:], corr)
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(payload)))
	c.mu.Lock()
	defer c.mu.Unlock()
	// One vectored write: header and payload leave as a unit, so a
	// concurrent writer can never interleave between them (the old
	// two-Write sequence relied on the mutex alone; a partial first write
	// followed by a competing frame would desynchronize the stream).
	buf := net.Buffers{hdr, payload}
	_, err := buf.WriteTo(c.conn)
	return err
}

type tcpReply struct {
	payload []byte
	err     string
	// lost marks a transport-level failure (connection died, transport
	// closed) rather than a remote handler error; Call wraps these in
	// ErrUnreachable for the crash classifiers.
	lost bool
}

// tcpPending is one in-flight Call: the reply channel and the connection
// the request went out on, so the call can be failed fast when that
// connection dies instead of blocking forever.
type tcpPending struct {
	ch chan tcpReply
	c  *tcpConn
}

// NewTCPTransport starts a transport listening on addr ("127.0.0.1:0"
// for an ephemeral port). Peers are added with Connect, or implicitly
// when they dial us.
func NewTCPTransport(id int, addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPTransport{
		id:          id,
		handlers:    make(map[MsgKind]Handler),
		peers:       make(map[int]*tcpConn),
		waiting:     make(map[uint64]*tcpPending),
		listener:    ln,
		dialBackoff: 10 * time.Millisecond,
		dialMax:     5 * time.Second,
	}
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listen address.
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// NodeID returns the transport's node id.
func (t *TCPTransport) NodeID() int { return t.id }

// Handle registers a handler.
func (t *TCPTransport) Handle(kind MsgKind, h Handler) {
	t.mu.Lock()
	t.handlers[kind] = h
	t.mu.Unlock()
}

func putHello(id int) []byte {
	hello := make([]byte, 8)
	binary.LittleEndian.PutUint64(hello, uint64(id))
	return hello
}

// Connect dials a peer, performs the id handshake, registers the
// connection and returns the peer's node id. Daemons race at startup, so
// a refused dial is retried with doubling backoff until the transport's
// dial deadline (~5s) expires.
func (t *TCPTransport) Connect(addr string) (int, error) {
	var conn net.Conn
	var err error
	deadline := time.Now().Add(t.dialMax)
	for backoff := t.dialBackoff; ; backoff *= 2 {
		if t.closed.Load() {
			return 0, fmt.Errorf("tcp: node %d: transport closed: %w", t.id, ErrSelfDown)
		}
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("tcp: node %d dial %s: %v: %w", t.id, addr, err, ErrUnreachable)
		}
		if remain := time.Until(deadline); backoff > remain {
			backoff = remain
		}
		time.Sleep(backoff)
	}
	if _, err := conn.Write(putHello(t.id)); err != nil {
		conn.Close() //nolint:errcheck
		return 0, fmt.Errorf("tcp: node %d hello to %s: %v: %w", t.id, addr, err, ErrUnreachable)
	}
	hello := make([]byte, 8)
	if _, err := io.ReadFull(conn, hello); err != nil {
		conn.Close() //nolint:errcheck
		return 0, fmt.Errorf("tcp: node %d handshake with %s: %v: %w", t.id, addr, err, ErrUnreachable)
	}
	peerID := int(binary.LittleEndian.Uint64(hello))
	c := &tcpConn{conn: conn, dialed: true}
	t.addPeer(peerID, c)
	go t.readLoop(peerID, c)
	return peerID, nil
}

// addPeer registers c as the connection for peerID. Duplicates happen —
// two daemons discovering each other concurrently dial in both
// directions — and each side must pick the SAME winner, or each keeps
// its own dial, closes the other's, and the pair ends up with no
// connection at all (the transport never redials on its own). The
// canonical connection for a pair is the one dialed by the lower node
// id; a duplicate in the same direction is a redial and replaces its
// predecessor. A replaced or refused conn is closed here: its readLoop
// fails the calls in flight on it (they retry or take their fallback),
// and dropConn sees it unmapped so no "peer down" is announced for a
// pair that stays connected. No connection ever lives outside the map:
// Close only walks the map, and a live-but-untracked socket would keep
// serving requests — a "crashed" node that still answers its peers'
// liveness probes through an orphan can never be declared dead.
func (t *TCPTransport) addPeer(peerID int, c *tcpConn) {
	canonical := (c.dialed && t.id < peerID) || (!c.dialed && peerID < t.id)
	t.mu.Lock()
	old := t.peers[peerID]
	keep := old == nil || canonical || old.dialed == c.dialed
	if keep {
		t.peers[peerID] = c
	}
	closed := t.closed.Load()
	t.mu.Unlock()
	if keep && old != nil {
		old.conn.Close() //nolint:errcheck // replaced by the canonical (or fresher) conn
	}
	if !keep || closed {
		c.conn.Close() //nolint:errcheck // lost the tie-break, or transport already down
	}
}

// dropConn forgets a dead connection: the peer entry is removed (if it
// still points at this connection) and every Call waiting on it fails
// with an unreachable error instead of blocking forever.
func (t *TCPTransport) dropConn(peerID int, c *tcpConn) {
	t.mu.Lock()
	mapped := t.peers[peerID] == c
	if mapped {
		delete(t.peers, peerID)
	}
	var stranded []*tcpPending
	for corr, p := range t.waiting {
		if p.c == c {
			stranded = append(stranded, p)
			delete(t.waiting, corr)
		}
	}
	// The hook fires only for the peer's live connection: a conn that
	// lost a simultaneous-dial race dies without ever carrying traffic,
	// and announcing that as "peer down" would cancel healthy streams.
	var hook func(int)
	if mapped {
		hook = t.peerDown
	}
	t.mu.Unlock()
	c.conn.Close() //nolint:errcheck
	for _, p := range stranded {
		p.ch <- tcpReply{err: fmt.Sprintf("connection to node %d lost", peerID), lost: true}
	}
	if hook != nil {
		hook(peerID)
	}
}

// Close shuts the transport down: the listener stops, every connection
// is closed and every pending Call fails. Safe to call more than once
// and concurrently with Calls.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		t.closeErr = t.listener.Close()
		t.mu.Lock()
		conns := make([]*tcpConn, 0, len(t.peers))
		for _, c := range t.peers {
			conns = append(conns, c)
		}
		t.peers = make(map[int]*tcpConn)
		stranded := make([]*tcpPending, 0, len(t.waiting))
		for _, p := range t.waiting {
			stranded = append(stranded, p)
		}
		t.waiting = make(map[uint64]*tcpPending)
		t.mu.Unlock()
		for _, c := range conns {
			c.conn.Close() //nolint:errcheck
		}
		for _, p := range stranded {
			p.ch <- tcpReply{err: "transport closed", lost: true}
		}
	})
	return t.closeErr
}

func (t *TCPTransport) acceptLoop() {
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return
		}
		go func(nc net.Conn) {
			hello := make([]byte, 8)
			if _, err := io.ReadFull(nc, hello); err != nil {
				nc.Close() //nolint:errcheck
				return
			}
			if _, err := nc.Write(putHello(t.id)); err != nil {
				nc.Close() //nolint:errcheck
				return
			}
			peerID := int(binary.LittleEndian.Uint64(hello))
			c := &tcpConn{conn: nc}
			t.addPeer(peerID, c)
			t.readLoop(peerID, c)
		}(conn)
	}
}

const (
	flagReply = 1 << 0
	flagErr   = 1 << 1
)

func (t *TCPTransport) readLoop(peerID int, c *tcpConn) {
	defer t.dropConn(peerID, c)
	// One buffered reader per connection, wrapped after the hello
	// handshake: a small frame's header and payload then arrive in one
	// read syscall instead of two. Payloads larger than the buffer are
	// read straight from the socket, so big migration frames are not
	// copied twice.
	br := bufio.NewReader(c.conn)
	var hdr [14]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		kind := MsgKind(hdr[0])
		flags := hdr[1]
		corr := binary.LittleEndian.Uint64(hdr[2:])
		n := binary.LittleEndian.Uint32(hdr[10:])
		if n > MaxFrameBytes {
			// An over-limit length prefix means the stream is corrupt or
			// the peer is misbehaving; there is no way to resynchronize a
			// byte stream past an untrusted length, so the connection is
			// dropped (dropConn fails the pending calls) rather than
			// allocating for it or hanging.
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}

		if flags&flagReply != 0 {
			t.mu.Lock()
			p := t.waiting[corr]
			delete(t.waiting, corr)
			t.mu.Unlock()
			if p != nil {
				rep := tcpReply{payload: payload}
				if flags&flagErr != 0 {
					rep.err = string(payload)
					rep.payload = nil
				}
				p.ch <- rep
			}
			continue
		}

		t.mu.Lock()
		h := t.handlers[kind]
		t.mu.Unlock()
		if corr == 0 {
			// One-way: handled after the peer's earlier frames of kind.
			if h != nil {
				t.inbox.deliver(peerID, kind, h, payload)
			}
			continue
		}
		go func(kind MsgKind, corr uint64, payload []byte) {
			var reply []byte
			var herr error
			if h == nil {
				herr = fmt.Errorf("tcp: node %d has no handler for kind %d", t.id, kind)
			} else {
				reply, herr = h(peerID, payload)
			}
			if t.closed.Load() {
				// The transport died while the handler ran. A crash must be
				// atomic on the wire: every send the handler attempted after
				// the close already failed, so acknowledging the request now
				// would advertise work the node can no longer finish (e.g. a
				// flush ack whose follow-on discharge was refused). Stay
				// silent and let the caller's crash handling take over.
				return
			}
			if herr != nil {
				c.writeFrame(kind, flagReply|flagErr, corr, []byte(herr.Error())) //nolint:errcheck
				return
			}
			if err := c.writeFrame(kind, flagReply, corr, reply); errors.Is(err, ErrFrameTooLarge) {
				// An oversized *reply* must still answer the caller, or its
				// Call would hang until timeout; downgrade to an error reply.
				c.writeFrame(kind, flagReply|flagErr, corr, []byte(err.Error())) //nolint:errcheck
			}
		}(kind, corr, payload)
	}
}

func (t *TCPTransport) peer(to int) (*tcpConn, error) {
	t.mu.Lock()
	c := t.peers[to]
	t.mu.Unlock()
	if t.closed.Load() {
		return nil, fmt.Errorf("tcp: node %d: transport closed: %w", t.id, ErrSelfDown)
	}
	if c == nil {
		return nil, fmt.Errorf("tcp: node %d not connected to %d: %w", t.id, to, ErrUnreachable)
	}
	return c, nil
}

// Call performs a blocking request/response round trip. A connection
// that dies mid-call fails the call, and CallTimeout (when set) bounds
// the wait on a peer that stays connected but silent.
func (t *TCPTransport) Call(to int, kind MsgKind, payload []byte) ([]byte, error) {
	return t.CallContext(context.Background(), to, kind, payload)
}

// CallContext is Call bounded by ctx as well: the caller's goroutine
// waits on the reply and on ctx.Done() together, so an abandoned call
// costs no extra goroutine. A reply that lands after ctx ended is
// dropped.
func (t *TCPTransport) CallContext(ctx context.Context, to int, kind MsgKind, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("tcp: node %d call to %d: %w", t.id, to, err)
	}
	c, err := t.peer(to)
	if err != nil {
		return nil, err
	}
	corr := t.corr.Add(1)
	p := &tcpPending{ch: make(chan tcpReply, 1), c: c}
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil, fmt.Errorf("tcp: node %d: transport closed: %w", t.id, ErrSelfDown)
	}
	t.waiting[corr] = p
	t.mu.Unlock()
	forget := func() {
		t.mu.Lock()
		delete(t.waiting, corr)
		t.mu.Unlock()
	}
	if err := c.writeFrame(kind, 0, corr, payload); err != nil {
		forget()
		if errors.Is(err, ErrFrameTooLarge) {
			// The connection is healthy; only this payload is refused.
			return nil, fmt.Errorf("tcp: node %d call to %d: %w", t.id, to, err)
		}
		return nil, fmt.Errorf("tcp: node %d send to %d: %v: %w", t.id, to, err, ErrUnreachable)
	}
	var timeout <-chan time.Time
	if t.CallTimeout > 0 {
		timer := time.NewTimer(t.CallTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	// A reply racing the timeout or ctx lands in the buffered channel and
	// is dropped with it.
	var rep tcpReply
	select {
	case rep = <-p.ch:
	case <-timeout:
		forget()
		return nil, fmt.Errorf("tcp: node %d call to %d timed out after %v: %w",
			t.id, to, t.CallTimeout, ErrUnreachable)
	case <-ctx.Done():
		forget()
		return nil, fmt.Errorf("tcp: node %d call to %d: %w", t.id, to, ctx.Err())
	}
	if rep.lost {
		return nil, fmt.Errorf("tcp: node %d call to %d: %s: %w", t.id, to, rep.err, ErrUnreachable)
	}
	if rep.err != "" {
		return nil, fmt.Errorf("tcp: remote %d: %s", to, rep.err)
	}
	return rep.payload, nil
}

// Send delivers a one-way message; the peer handles it in order behind
// the earlier frames of kind from this node.
func (t *TCPTransport) Send(to int, kind MsgKind, payload []byte) error {
	c, err := t.peer(to)
	if err != nil {
		return err
	}
	if err := c.writeFrame(kind, 0, 0, payload); err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			return fmt.Errorf("tcp: node %d send to %d: %w", t.id, to, err)
		}
		return fmt.Errorf("tcp: node %d send to %d: %v: %w", t.id, to, err, ErrUnreachable)
	}
	return nil
}

var _ Transport = (*TCPTransport)(nil)
