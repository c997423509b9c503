package daemon

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sodee"
	"repro/internal/wire"
)

// Client is a control-plane connection to one daemon — what sodctl and
// the integration tests use to drive a cluster from outside. Clients use
// negative node ids so they can never collide with (or be mistaken for)
// cluster members; a daemon answers their RPCs but never gossips to
// them. Every request takes a context: the call waits on the reply and
// on ctx together, with no goroutine of its own.
type Client struct {
	tr   *netsim.TCPTransport
	peer int

	// watches routes streamed opEvent frames to their streams by
	// generation — a client-chosen per-stream nonce, so several streams
	// of one job coexist and frames from a cancelled stream can never be
	// mistaken for a successor's.
	mu       sync.Mutex
	watchGen uint64
	watches  map[uint64]*clientWatch
	// held maps a job submitted through this client to the event stream
	// its Submit opened, until the first Watch of the job takes it, a
	// Wait on the job returns, or more than maxHeld streams are held and
	// it is the oldest.
	held map[uint64]*clientWatch
}

// maxHeld bounds the streams a client holds for jobs nobody has watched
// or waited on yet. It is below sodee.RetainedJobs, so a client that
// submits alone cannot go on answering Watch from held streams for jobs
// its daemon has already forgotten.
const maxHeld = 1024

// watchBuffer is how many undelivered events one stream queues before it
// drops non-terminal ones: the size of the daemon's per-job ring, twice
// the history a job keeps, so a replay never overflows it.
const watchBuffer = 128

type clientWatch struct {
	gen uint64
	// ch delivers events to the consumer. It is nil while a Submit's
	// stream is held with no consumer yet; events queue in buf until a
	// Watch takes the stream.
	ch     chan sodee.JobEvent
	buf    []sodee.JobEvent
	closed bool
	// all marks a WatchAll stream: terminal events pass through without
	// ending it (the stream spans every job in the cluster). Events need
	// no reordering: the transport hands the daemon's one-way frames
	// over in the order they were sent.
	all bool
	// ended (Submit streams only) closes when the stream ends, for any
	// reason; term is its terminal event if one arrived. Both are set
	// under Client.mu before ended closes.
	ended chan struct{}
	term  *sodee.JobEvent
	// stopCtx unhooks a Watch stream from the context that ends it.
	stopCtx func() bool
}

// push queues one event for the consumer without blocking.
// A full queue drops the event — unless it is the terminal, which
// carries the job's outcome and evicts the oldest queued event instead.
func (w *clientWatch) push(ev sodee.JobEvent) {
	if w.ch == nil {
		switch {
		case len(w.buf) < watchBuffer:
			w.buf = append(w.buf, ev)
		case ev.Terminal():
			copy(w.buf, w.buf[1:])
			w.buf[len(w.buf)-1] = ev
		}
		return
	}
	select {
	case w.ch <- ev:
	default:
		if ev.Terminal() {
			select {
			case <-w.ch:
			default:
			}
			select {
			case w.ch <- ev:
			default:
			}
		}
	}
}

// finish ends the stream: the consumer channel (if attached) and ended
// close. Idempotent; the caller holds Client.mu.
func (w *clientWatch) finish() {
	if w.closed {
		return
	}
	w.closed = true
	if w.ch != nil {
		close(w.ch)
	}
	if w.ended != nil {
		close(w.ended)
	}
	if w.stopCtx != nil {
		w.stopCtx()
	}
}

// attach gives a held stream its consumer channel, delivering what
// queued while it was held. A stream that already ended needs room for
// exactly that. The caller holds Client.mu.
func (w *clientWatch) attach() {
	size := watchBuffer
	if w.closed {
		size = len(w.buf)
	}
	w.ch = make(chan sodee.JobEvent, size)
	for _, ev := range w.buf {
		w.ch <- ev
	}
	w.buf = nil
	if w.closed {
		close(w.ch)
	}
}

// ctlSeq disambiguates several clients inside one process.
var ctlSeq atomic.Int64

// Dial connects a control client to the daemon at addr and verifies the
// control-protocol version.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with a bound on how long a dead address is retried
// (0 keeps the transport's default, ~5s).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	id := -(int(ctlSeq.Add(1))*1_000_000 + os.Getpid()%1_000_000 + 1)
	tr, err := netsim.NewTCPTransport(id, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		tr.SetDialWindow(0, timeout)
	}
	c := &Client{
		tr:      tr,
		watches: make(map[uint64]*clientWatch),
		held:    make(map[uint64]*clientWatch),
	}
	// Register the stream plumbing before the daemon can possibly send a
	// frame: events for a stream may arrive before the reply that opened
	// it.
	tr.Handle(netsim.KindControl, c.handleControl)
	tr.SetPeerDownHook(func(int) { c.endAllWatches() })
	peer, err := tr.Connect(addr)
	if err != nil {
		tr.Close() //nolint:errcheck
		return nil, err
	}
	c.peer = peer
	if err := helloCheck(tr, peer); err != nil {
		tr.Close() //nolint:errcheck
		return nil, err
	}
	return c, nil
}

// Close releases the connection and ends every live watch.
func (c *Client) Close() {
	c.tr.Close() //nolint:errcheck
	c.endAllWatches()
}

// Peer returns the daemon's node id.
func (c *Client) Peer() int { return c.peer }

func (c *Client) call(ctx context.Context, payload []byte) ([]byte, error) {
	return c.tr.CallContext(ctx, c.peer, netsim.KindControl, payload)
}

// MemberInfo is one row of a daemon's membership view.
type MemberInfo struct {
	Node       int
	State      membership.State
	SinceHeard time.Duration
	Addr       string
}

// Members queries the daemon's membership view; self is the daemon's
// own id.
func (c *Client) Members(ctx context.Context) (self int, members []MemberInfo, err error) {
	w := wire.NewWriter(1)
	w.Byte(opMembers)
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return 0, nil, err
	}
	r := wire.NewReader(reply)
	self = int(r.Varint())
	n := int(r.Uvarint())
	for i := 0; i < n && r.Err() == nil; i++ {
		members = append(members, MemberInfo{
			Node:       int(r.Varint()),
			State:      membership.State(r.Byte()),
			SinceHeard: time.Duration(r.Uvarint()) * time.Millisecond,
			Addr:       string(r.Blob()),
		})
	}
	return self, members, r.Err()
}

// Job is a job submitted through this client, or looked up by id. A
// submitted Job keeps the event stream its Submit opened, so Wait and
// Done answer from the stream's terminal event with no request of their
// own; a looked-up Job, or one whose stream ended without a terminal,
// asks the daemon with opWait.
type Job struct {
	c  *Client
	id uint64
	s  *clientWatch // nil: no stream, always opWait
}

// ID returns the job's id at the daemon.
func (j *Job) ID() uint64 { return j.id }

// Job returns a handle for a job id without checking that the daemon
// knows it; its Wait and Done use opWait.
func (c *Client) Job(id uint64) *Job { return &Job{c: c, id: id} }

// Submit starts a job on the daemon. The daemon opens the job's event
// stream in the same request; the client holds it for the job's first
// Watch and for Wait.
func (c *Client) Submit(ctx context.Context, method string, args ...int64) (*Job, error) {
	return c.submit(ctx, opSubmit, method, args...)
}

// SubmitChain starts a chain-owned job: the daemon's chain planner
// places its stack as a multi-segment forward pipeline (the daemon must
// run with -chain). It streams like Submit.
func (c *Client) SubmitChain(ctx context.Context, method string, args ...int64) (*Job, error) {
	return c.submit(ctx, opSubmitChain, method, args...)
}

func (c *Client) submit(ctx context.Context, op byte, method string, args ...int64) (*Job, error) {
	c.mu.Lock()
	// Registered before the request goes out: the stream's events can
	// arrive before the reply does.
	s := c.newWatchLocked(false)
	s.ended = make(chan struct{})
	c.mu.Unlock()
	w := wire.NewWriter(64)
	w.Byte(op)
	w.Blob([]byte(method))
	w.Uvarint(uint64(len(args)))
	for _, a := range args {
		w.Varint(a)
	}
	w.Uvarint(s.gen)
	reply, err := c.call(ctx, w.Bytes())
	if err == nil {
		r := wire.NewReader(reply)
		id := r.Uvarint()
		if err = r.Err(); err == nil {
			c.mu.Lock()
			c.held[id] = s
			evicted := c.evictHeldLocked()
			c.mu.Unlock()
			for _, gen := range evicted {
				c.unwatch(gen)
			}
			return &Job{c: c, id: id, s: s}, nil
		}
	}
	c.abandon(ctx, s.gen)
	return nil, err
}

// evictHeldLocked drops the oldest held streams (lowest generation) past
// maxHeld and returns the generations of those still live, which the
// caller unwatches once c.mu is released. Their jobs' Waits fall back to
// opWait.
func (c *Client) evictHeldLocked() []uint64 {
	var live []uint64
	for len(c.held) > maxHeld {
		var oldest uint64
		var ow *clientWatch
		for id, w := range c.held {
			if ow == nil || w.gen < ow.gen {
				oldest, ow = id, w
			}
		}
		if c.dropHeldLocked(oldest, ow) {
			live = append(live, ow.gen)
		}
	}
	return live
}

// release drops j's stream from the held set once its Wait returns.
func (c *Client) release(j *Job) {
	c.mu.Lock()
	live := c.held[j.id] == j.s && c.dropHeldLocked(j.id, j.s)
	c.mu.Unlock()
	if live {
		c.unwatch(j.s.gen)
	}
}

// dropHeldLocked forgets job id's held stream w and ends it if it is
// still live: nobody consumes it. It reports whether the daemon must be
// told too, which the caller does once c.mu is released.
func (c *Client) dropHeldLocked(id uint64, w *clientWatch) bool {
	delete(c.held, id)
	w.buf = nil
	if w.closed {
		return false
	}
	delete(c.watches, w.gen)
	w.finish()
	return true
}

// Wait blocks until the job completes or ctx ends. A non-empty errMsg is
// the job's failure; err covers the transport and the context.
func (j *Job) Wait(ctx context.Context) (result int64, errMsg string, err error) {
	if j.s == nil {
		return j.c.WaitContext(ctx, j.id)
	}
	defer j.c.release(j)
	select {
	case <-j.s.ended:
	case <-ctx.Done():
		return 0, "", ctx.Err()
	}
	if t := j.s.term; t != nil {
		return t.Result, t.Err, nil
	}
	return j.c.WaitContext(ctx, j.id)
}

// Done reports whether the job has completed. While the job's stream is
// live it answers locally: the terminal event has not arrived.
func (j *Job) Done(ctx context.Context) (bool, error) {
	if j.s != nil {
		select {
		case <-j.s.ended:
			if j.s.term != nil {
				return true, nil
			}
		default:
			return false, nil
		}
	}
	_, done, _, err := j.c.Wait(ctx, j.id, 0)
	return done, err
}

// Wait asks the daemon (opWait) for a job's result, blocking there up to
// timeout. done is false on timeout; a non-empty errMsg is the job's
// failure.
func (c *Client) Wait(ctx context.Context, job uint64, timeout time.Duration) (result int64, done bool, errMsg string, err error) {
	w := wire.NewWriter(24)
	w.Byte(opWait)
	w.Uvarint(job)
	w.Uvarint(uint64(timeout / time.Millisecond))
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return 0, false, "", err
	}
	r := wire.NewReader(reply)
	done = r.Byte() != 0
	result = r.Varint()
	errMsg = string(r.Blob())
	return result, done, errMsg, r.Err()
}

// waitChunk bounds one long-poll round trip of WaitContext. The caller
// stops waiting the moment ctx ends; the chunk bounds how long the
// daemon's handler goes on waiting for a caller that has left.
const waitChunk = 500 * time.Millisecond

// WaitContext blocks until the job completes or ctx ends, long-polling
// the daemon with opWait in bounded chunks; a non-empty errMsg is the
// job's failure, err covers the transport and the context.
func (c *Client) WaitContext(ctx context.Context, job uint64) (result int64, errMsg string, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return 0, "", err
		}
		chunk := waitChunk
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < chunk {
				chunk = rem
			}
			if chunk <= 0 {
				return 0, "", context.DeadlineExceeded
			}
		}
		res, done, errMsg, err := c.Wait(ctx, job, chunk)
		if err != nil {
			return 0, "", err
		}
		if done {
			return res, errMsg, nil
		}
	}
}

// --- job event streaming ---

// newWatchLocked registers a stream under a fresh generation; the
// caller holds c.mu.
func (c *Client) newWatchLocked(all bool) *clientWatch {
	c.watchGen++
	w := &clientWatch{gen: c.watchGen, all: all}
	c.watches[w.gen] = w
	return w
}

// Watch subscribes to a job's lifecycle events. The daemon replays the
// job's retained history first, then streams live events; the channel is
// closed after the job's terminal event, when cancel is called or ctx
// ends, or when the connection to the daemon dies. A job may be watched
// any number of times concurrently; every subscription gets the full
// stream. The first Watch of a job submitted through this client takes
// the stream its Submit opened, with no request; any other Watch sends
// opWatch. A Watch whose ctx has already ended fails with ctx's error and
// leaves a held stream held.
func (c *Client) Watch(ctx context.Context, job uint64) (<-chan sodee.JobEvent, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	// A held stream that ended without its terminal cannot replay the
	// job's story; opWatch can.
	if w := c.held[job]; w != nil && (w.term != nil || !w.closed) {
		delete(c.held, job)
		w.attach()
		c.bindLocked(ctx, w)
		c.mu.Unlock()
		return w.ch, c.cancelFunc(w.gen), nil
	}
	w := c.newWatchLocked(false)
	w.ch = make(chan sodee.JobEvent, watchBuffer)
	c.mu.Unlock()
	req := wire.NewWriter(20)
	req.Byte(opWatch)
	req.Uvarint(job)
	req.Uvarint(w.gen)
	return c.openStream(ctx, w, req.Bytes())
}

// WatchAll subscribes to the cluster-wide event stream: every job event
// from every node, merged by the daemon's hub. The channel never closes
// on a job's terminal event — it closes when cancel is called or ctx
// ends, when the connection dies, or when the daemon evicts this client
// for not keeping up (the backpressure contract: non-terminal events may
// be coalesced behind EvLagged markers; a consumer too slow to keep even
// job outcomes is cut off rather than allowed to stall the cluster's
// buses). Like Watch, it fails at once if ctx has already ended.
func (c *Client) WatchAll(ctx context.Context) (<-chan sodee.JobEvent, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	w := c.newWatchLocked(true)
	// The daemon's hub buffers as much per subscriber (sodee's fanRingCap).
	w.ch = make(chan sodee.JobEvent, 512)
	c.mu.Unlock()
	req := wire.NewWriter(12)
	req.Byte(opWatchAll)
	req.Uvarint(w.gen)
	return c.openStream(ctx, w, req.Bytes())
}

// openStream sends req, the request that starts stream w at the daemon,
// and ties the stream's life to ctx.
func (c *Client) openStream(ctx context.Context, w *clientWatch, req []byte) (<-chan sodee.JobEvent, func(), error) {
	if _, err := c.call(ctx, req); err != nil {
		c.abandon(ctx, w.gen)
		return nil, nil, err
	}
	c.mu.Lock()
	c.bindLocked(ctx, w)
	c.mu.Unlock()
	return w.ch, c.cancelFunc(w.gen), nil
}

// abandon ends stream gen after the request that was to open it failed.
// The daemon opened nothing if it answered with an error; if ctx ended
// first it may have, so it is told to stop. The daemon handles that
// one-way unwatch concurrently with the opening request, so it can land
// before the stream opens; handleControl repeats it for each frame the
// orphan sends.
func (c *Client) abandon(ctx context.Context, gen uint64) {
	if c.endWatch(gen) && ctx.Err() != nil {
		c.unwatch(gen)
	}
}

// bindLocked ends stream w when ctx ends, unless it already has; the
// caller holds c.mu. The hook is released when the stream finishes.
func (c *Client) bindLocked(ctx context.Context, w *clientWatch) {
	if !w.closed {
		w.stopCtx = context.AfterFunc(ctx, c.cancelFunc(w.gen))
	}
}

// cancelFunc ends stream gen here and, if it was still live, at the
// daemon.
func (c *Client) cancelFunc(gen uint64) func() {
	return func() {
		if c.endWatch(gen) {
			c.unwatch(gen)
		}
	}
}

// unwatch tells the daemon to stop streaming gen. It is one-way and best
// effort: the daemon also ends a stream when its sends start failing.
func (c *Client) unwatch(gen uint64) {
	w := wire.NewWriter(12)
	w.Byte(opUnwatch)
	w.Uvarint(gen)
	c.tr.Send(c.peer, netsim.KindControl, w.Bytes()) //nolint:errcheck
}

// endWatch closes and forgets one stream; reports whether it was live.
func (c *Client) endWatch(gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.watches[gen]
	if w == nil {
		return false
	}
	delete(c.watches, gen)
	w.finish()
	return true
}

func (c *Client) endAllWatches() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for gen, w := range c.watches {
		delete(c.watches, gen)
		w.finish()
	}
}

// handleControl receives the daemon's one-way stream frames.
func (c *Client) handleControl(from int, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("daemon client: empty control frame")
	}
	switch payload[0] {
	case opEvent:
		r := wire.NewReader(payload[1:])
		gen := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		ev, err := sodee.DecodeJobEvent(payload[1+r.Pos():])
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		w := c.watches[gen]
		if w != nil {
			w.push(ev)
			if ev.Terminal() && !w.all {
				w.term = &ev
				delete(c.watches, gen)
				w.finish()
			}
		}
		c.mu.Unlock()
		if w == nil {
			// A stream this client has already ended. If its opening
			// request was abandoned, the unwatch sent then may have reached
			// the daemon before the stream opened there, leaving it
			// streaming to nobody; a frame says it is still open, so say
			// it again. Generations are never reused, so this cannot end a
			// live stream, and the daemon ignores gens it does not hold.
			c.unwatch(gen)
		}
		return nil, nil
	case opEventEnd:
		r := wire.NewReader(payload[1:])
		gen := r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		c.endWatch(gen)
		return nil, nil
	default:
		return nil, fmt.Errorf("daemon client: unexpected control op %d", payload[0])
	}
}

// Run submits a job and waits for its result from the job's stream; ctx
// bounds the whole run.
func (c *Client) Run(ctx context.Context, method string, args ...int64) (int64, error) {
	j, err := c.Submit(ctx, method, args...)
	if err != nil {
		return 0, err
	}
	res, errMsg, err := j.Wait(ctx)
	if err != nil {
		return 0, fmt.Errorf("job %d: %w", j.ID(), err)
	}
	if errMsg != "" {
		return 0, fmt.Errorf("job %d failed: %s", j.ID(), errMsg)
	}
	return res, nil
}

// Stats queries the daemon's balancer counters, including the
// per-direction migration split (pushed / stolen / rebalanced /
// chained) and the node's steal counters.
func (c *Client) Stats(ctx context.Context) (sodee.BalanceStats, sodee.StealStats, error) {
	w := wire.NewWriter(1)
	w.Byte(opStats)
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return sodee.BalanceStats{}, sodee.StealStats{}, err
	}
	r := wire.NewReader(reply)
	st := sodee.BalanceStats{
		Ticks:            int(r.Uvarint()),
		Decisions:        int(r.Uvarint()),
		Migrations:       int(r.Uvarint()),
		FailedMigrations: int(r.Uvarint()),
		Pushed:           int(r.Uvarint()),
		Stolen:           int(r.Uvarint()),
		Rebalanced:       int(r.Uvarint()),
		Chained:          int(r.Uvarint()),
		ChainSegments:    int(r.Uvarint()),
		MigrationsTo:     make(map[int]int),
	}
	ss := sodee.StealStats{
		RequestsSent:    int(r.Uvarint()),
		Won:             int(r.Uvarint()),
		RequestsServed:  int(r.Uvarint()),
		Granted:         int(r.Uvarint()),
		Denied:          int(r.Uvarint()),
		FailedTransfers: int(r.Uvarint()),
	}
	n := int(r.Uvarint())
	for i := 0; i < n && r.Err() == nil; i++ {
		dest := int(r.Varint())
		st.MigrationsTo[dest] = int(r.Uvarint())
	}
	return st, ss, r.Err()
}

// Metrics snapshots the daemon's metrics registry (counters, gauges,
// histograms). Snapshots from several daemons merge into a cluster view
// with Snapshot.Merge.
func (c *Client) Metrics(ctx context.Context) (*obs.Snapshot, error) {
	w := wire.NewWriter(1)
	w.Byte(opMetrics)
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return nil, err
	}
	return obs.DecodeSnapshot(reply)
}

// Trace fetches a job's span timeline — capture/transfer/restore phases
// per migration hop, chain plants and forwards — causally ordered at the
// job's origin node. Ask the daemon that started the job: spans ride
// home to the origin, other nodes answer "no trace".
func (c *Client) Trace(ctx context.Context, job uint64) ([]obs.Span, error) {
	w := wire.NewWriter(12)
	w.Byte(opTrace)
	w.Uvarint(job)
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return nil, err
	}
	return obs.DecodeSpans(reply)
}

// LoadInfo is a daemon's view of cluster load.
type LoadInfo struct {
	Local       policy.Signals
	Peers       []policy.Signals
	WireLatency map[int]time.Duration // calibrated per-destination EWMA
}

// Load queries the daemon's local and gossiped load signals.
func (c *Client) Load(ctx context.Context) (LoadInfo, error) {
	w := wire.NewWriter(1)
	w.Byte(opLoad)
	reply, err := c.call(ctx, w.Bytes())
	if err != nil {
		return LoadInfo{}, err
	}
	r := wire.NewReader(reply)
	var info LoadInfo
	local, err := sodee.DecodeSignals(r.Blob())
	if err != nil {
		return LoadInfo{}, err
	}
	info.Local = local
	n := int(r.Uvarint())
	for i := 0; i < n && r.Err() == nil; i++ {
		p, perr := sodee.DecodeSignals(r.Blob())
		if perr != nil {
			return LoadInfo{}, perr
		}
		info.Peers = append(info.Peers, p)
	}
	info.WireLatency = make(map[int]time.Duration)
	for i, nl := 0, int(r.Uvarint()); i < nl && r.Err() == nil; i++ {
		dest := int(r.Varint())
		info.WireLatency[dest] = time.Duration(r.Uvarint())
	}
	return info, r.Err()
}
