// Package netsim provides the cluster interconnect: message endpoints with
// request/response (RPC) semantics, per-link bandwidth shaping and latency.
//
// Shaping is real-time: a transfer of b bytes over a link with bandwidth B
// occupies the link for b/B seconds (enforced with a serializing
// reservation per link, so concurrent transfers queue exactly as they
// would on a wire) and delivery is delayed by the link latency. The
// evaluation uses a 1 Gbps/0.1 ms profile for the cluster (the paper's
// Gigabit Ethernet) and kbps-range profiles for the §IV.D device
// experiments; byte counts come from the real encoded payloads, so
// migration-latency breakdowns are reproducible and workload-dependent
// exactly as in the paper.
//
// A second implementation of the same Transport interface runs over real
// TCP loopback sockets (tcp.go) and is exercised by integration tests and
// the photoshare example.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MsgKind identifies the protocol family of a message; handlers register
// per kind.
type MsgKind uint8

// Message kinds used by the runtime layers. Centralized here to keep the
// wire protocol auditable in one place.
const (
	KindObjectRequest MsgKind = 1 + iota // objman: fetch object by ref
	KindObjectData                       // objman: reply
	KindMigrate                          // migration manager: captured state
	KindFlush                            // segment results home
	KindClassRequest                     // code shipping: fetch class
	KindClassData                        // code shipping: reply
	KindNFSRead                          // simulated NFS chunk read
	KindStaticRequest                    // objman: fetch static field
	KindControl                          // runtime control (spawn worker, roam, ...)
	KindPage                             // Xen baseline (internal/experiments only): guest page batch
	KindHTTP                             // photoshare example traffic
	KindProcMigrate                      // G-JavaMPI baseline (internal/experiments only): eager process migration
	KindThreadMigrate                    // JESSICA2 baseline (internal/experiments only): thread migration
	KindLoadReport                       // policy engine: gossiped load signals
	KindStealRequest                     // work stealing: idle thief asks a loaded victim for a job
	KindStealGrant                       // work stealing: victim announces the job it is shipping
	KindJobEvent                         // job lifecycle event forwarded to the job's origin node
	KindTraceSpan                        // obs: batch of trace spans forwarded to the job's origin node
	_                                    // retired (streamed-statics data message); reserved so later kinds keep their numbers
	KindPing                             // membership: direct liveness probe (reply carries the target's incarnation)
	KindPingReq                          // membership: indirect probe — ask a relay to ping an unreachable peer
	KindRehome                           // origin re-homing: replicate/discard a job's origin state at its successor
)

// Handler serves a request and returns the reply payload. Request
// handlers run on their own goroutine per request and may issue nested
// calls; one-way frames are handled in order (see Transport).
type Handler func(from int, payload []byte) ([]byte, error)

// Sentinel errors for delivery failures; match with errors.Is. The crash
// classifiers in the runtime layers depend on these, not on message text.
var (
	// ErrUnreachable: the destination does not exist or is down.
	ErrUnreachable = fmt.Errorf("netsim: node unreachable")
	// ErrSelfDown: the sending node is itself marked down.
	ErrSelfDown = fmt.Errorf("netsim: sending node is down")
)

// LinkSpec describes one direction of a link.
type LinkSpec struct {
	BandwidthBps int64         // bytes are shaped at this many *bits* per second
	Latency      time.Duration // one-way propagation delay
}

// Gigabit is the cluster-interconnect profile used by the evaluation.
var Gigabit = LinkSpec{BandwidthBps: 1_000_000_000, Latency: 100 * time.Microsecond}

// Unlimited disables shaping (in-memory reference runs).
var Unlimited = LinkSpec{}

// Kbps builds a bandwidth-limited profile (the §IV.D device links).
func Kbps(k int64) LinkSpec {
	return LinkSpec{BandwidthBps: k * 1000, Latency: 2 * time.Millisecond}
}

// TransferTime returns how long size bytes occupy the link.
func (l LinkSpec) TransferTime(size int) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	bits := float64(size) * 8
	return time.Duration(bits / float64(l.BandwidthBps) * float64(time.Second))
}

// link carries the shaping state of one directed pair.
type link struct {
	spec     LinkSpec
	mu       sync.Mutex
	nextFree time.Time
}

// reserve blocks until the link can carry size bytes, enforcing FIFO
// serialization, and returns when the last byte has been "sent".
func (l *link) reserve(size int) {
	if l.spec.BandwidthBps <= 0 && l.spec.Latency <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	start := l.nextFree
	if start.Before(now) {
		start = now
	}
	end := start.Add(l.spec.TransferTime(size))
	l.nextFree = end
	l.mu.Unlock()
	time.Sleep(time.Until(end.Add(l.spec.Latency)))
}

// Stats aggregates network counters.
type Stats struct {
	Messages  atomic.Uint64
	Bytes     atomic.Uint64
	RPCRounds atomic.Uint64
}

// Transport is the node-facing interface; both the in-process simulated
// network and the TCP transport implement it.
//
// Delivery order: one-way frames of one kind from one peer are handled
// one at a time, in the order they were sent (a Send that returned before
// the next began is handled first). A handler that blocks holds up only
// the frames queued behind it. Frames of another kind or from another
// peer, and every Call's request and reply, are handled concurrently.
type Transport interface {
	// NodeID returns the local node id.
	NodeID() int
	// Handle registers the handler for a message kind.
	Handle(kind MsgKind, h Handler)
	// Call sends a request and blocks for the reply.
	Call(to int, kind MsgKind, payload []byte) ([]byte, error)
	// Send delivers a one-way message (blocking for the transfer time).
	Send(to int, kind MsgKind, payload []byte) error
}

// inbox gives one-way frames the Transport's delivery order: one queue
// per (peer, kind), drained by a goroutine that runs only while its queue
// holds frames. The zero value is ready to use.
type inbox struct {
	mu     sync.Mutex
	queues map[inboxKey][]inboxFrame
}

type inboxKey struct {
	peer int
	kind MsgKind
}

type inboxFrame struct {
	h       Handler
	payload []byte
}

// deliver queues payload for h behind the earlier frames of kind from
// peer, starting the queue's drain goroutine if it is idle.
func (b *inbox) deliver(peer int, kind MsgKind, h Handler, payload []byte) {
	key := inboxKey{peer, kind}
	b.mu.Lock()
	if b.queues == nil {
		b.queues = make(map[inboxKey][]inboxFrame)
	}
	q, busy := b.queues[key]
	b.queues[key] = append(q, inboxFrame{h, payload})
	b.mu.Unlock()
	if !busy {
		go b.drain(key)
	}
}

// drain handles key's frames in order and exits, dropping the queue,
// once it is empty.
func (b *inbox) drain(key inboxKey) {
	b.mu.Lock()
	for q := b.queues[key]; len(q) > 0; q = b.queues[key] {
		f := q[0]
		q[0] = inboxFrame{}
		b.queues[key] = q[1:]
		b.mu.Unlock()
		f.h(key.peer, f.payload) //nolint:errcheck // one-way: errors are the handler's problem
		b.mu.Lock()
	}
	delete(b.queues, key)
	b.mu.Unlock()
}

// Network is the in-process simulated cluster fabric.
type Network struct {
	mu          sync.Mutex
	endpoints   map[int]*Endpoint
	links       map[[2]int]*link
	down        map[int]bool
	defaultSpec LinkSpec
	Stats       Stats
}

// NewNetwork builds a fabric whose unspecified links use def.
func NewNetwork(def LinkSpec) *Network {
	return &Network{
		endpoints:   make(map[int]*Endpoint),
		links:       make(map[[2]int]*link),
		down:        make(map[int]bool),
		defaultSpec: def,
	}
}

// SetNodeDown simulates a node crash (or recovery): while down, every Call
// or Send to or from the node fails with an unreachable error. Messages
// already in flight are not interrupted — as on a real network, a crash
// surfaces at the next send attempt.
func (n *Network) SetNodeDown(id int, isDown bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if isDown {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// NodeDown reports whether id is currently marked crashed.
func (n *Network) NodeDown(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[id]
}

// SetLink configures both directions between a and b.
func (n *Network) SetLink(a, b int, spec LinkSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]int{a, b}] = &link{spec: spec}
	n.links[[2]int{b, a}] = &link{spec: spec}
}

// LinkSpecBetween returns the effective spec from a to b.
func (n *Network) LinkSpecBetween(a, b int) LinkSpec {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[[2]int{a, b}]; ok {
		return l.spec
	}
	return n.defaultSpec
}

func (n *Network) linkFor(from, to int) *link {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := [2]int{from, to}
	l, ok := n.links[key]
	if !ok {
		l = &link{spec: n.defaultSpec}
		n.links[key] = l
	}
	return l
}

// Node registers (or returns) the endpoint for id.
func (n *Network) Node(id int) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[id]; ok {
		return ep
	}
	ep := &Endpoint{
		net:      n,
		id:       id,
		handlers: make(map[MsgKind]Handler),
	}
	n.endpoints[id] = ep
	return ep
}

// Endpoint is one node's attachment to the fabric.
type Endpoint struct {
	net *Network
	id  int

	mu       sync.Mutex
	handlers map[MsgKind]Handler
	inbox    inbox
}

// NodeID returns the endpoint's node id.
func (e *Endpoint) NodeID() int { return e.id }

// Handle registers h for kind, replacing any previous handler.
func (e *Endpoint) Handle(kind MsgKind, h Handler) {
	e.mu.Lock()
	e.handlers[kind] = h
	e.mu.Unlock()
}

func (e *Endpoint) peer(to int) (*Endpoint, error) {
	e.net.mu.Lock()
	peer, ok := e.net.endpoints[to]
	srcDown, dstDown := e.net.down[e.id], e.net.down[to]
	e.net.mu.Unlock()
	if !ok || dstDown {
		return nil, fmt.Errorf("netsim: node %d from %d: %w", to, e.id, ErrUnreachable)
	}
	if srcDown {
		return nil, fmt.Errorf("netsim: node %d cannot reach %d: %w", e.id, to, ErrSelfDown)
	}
	return peer, nil
}

// transfer pays for the wire and accounts stats.
func (e *Endpoint) transfer(to int, size int) {
	const frameOverhead = 64 // per-message header/framing cost
	l := e.net.linkFor(e.id, to)
	l.reserve(size + frameOverhead)
	e.net.Stats.Messages.Add(1)
	e.net.Stats.Bytes.Add(uint64(size + frameOverhead))
}

// Call performs a blocking RPC to the handler of kind on node to. The
// reply pays for the return path as well.
func (e *Endpoint) Call(to int, kind MsgKind, payload []byte) ([]byte, error) {
	peer, err := e.peer(to)
	if err != nil {
		return nil, err
	}
	peer.mu.Lock()
	h := peer.handlers[kind]
	peer.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("netsim: node %d has no handler for kind %d", to, kind)
	}
	e.net.Stats.RPCRounds.Add(1)
	e.transfer(to, len(payload))
	reply, herr := h(e.id, payload)
	peer.transfer(e.id, len(reply))
	if herr != nil {
		return nil, fmt.Errorf("netsim: remote %d: %w", to, herr)
	}
	// A round trip that started before a SetNodeDown completes with its
	// reply intact: netsim "down" models a partition as much as a crash,
	// and a partitioned-but-running node keeps the effects of handlers
	// that already ran (it may rejoin with them). Losing replies here
	// would instead model a crash that forgets nothing and un-acks
	// everything — the worst of both — and non-idempotent protocols
	// (steal's job transfer) would double-execute on rejoin.
	return reply, nil
}

// Send delivers a one-way message, blocking until the bytes are on the
// wire. The remote handler runs asynchronously, in order behind the
// earlier frames of kind from this node; its return payload is discarded.
func (e *Endpoint) Send(to int, kind MsgKind, payload []byte) error {
	peer, err := e.peer(to)
	if err != nil {
		return err
	}
	peer.mu.Lock()
	h := peer.handlers[kind]
	peer.mu.Unlock()
	if h == nil {
		return fmt.Errorf("netsim: node %d has no handler for kind %d", to, kind)
	}
	e.transfer(to, len(payload))
	peer.inbox.deliver(e.id, kind, h, payload)
	return nil
}

var _ Transport = (*Endpoint)(nil)
