package sod

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/sodee"
	"repro/internal/value"
)

// One client API for every way a SOD cluster can run. Client is
// implemented by both the in-process cluster (Cluster.Client) and a
// control connection to a live sodd daemon (Dial), so an application,
// example or test written against it runs unchanged over the simulated
// fabric and over real TCP daemons — the migration transparency the
// paper promises, extended to the operator surface. The conformance
// suite in client_conformance_test.go runs the same scenarios against
// both implementations to keep them from drifting.

// Client drives one SOD cluster through a single node: submit jobs, wait
// for results, inspect membership and balancer activity, and stream a
// job's lifecycle events as it migrates around the cluster.
type Client interface {
	// Submit starts a job executing the named method and returns its
	// handle. Daemon-backed clients carry integer arguments only.
	Submit(ctx context.Context, method string, args ...Value) (JobHandle, error)
	// SubmitChain starts a chain-owned job: when the cluster balances
	// with the Chain option, the chain planner splits the job's stack
	// into a multi-segment FlowForward pipeline — each segment on the
	// best node, residuals planted ahead of execution, the result
	// forwarded node to node and flushed to this submission point. Watch
	// shows the chain as segment-planted / segment-forwarded events.
	// Without a chain-armed balancer the mark has no effect: the job
	// balances like any ordinary submission.
	SubmitChain(ctx context.Context, method string, args ...Value) (JobHandle, error)
	// Job returns the handle of a previously submitted job. A finished
	// job stays queryable until sodee.RetainedJobs younger jobs have
	// finished on the same node, on both surfaces.
	Job(id uint64) (JobHandle, error)
	// Members returns the connected node's view of the cluster: itself
	// plus every peer its failure detector tracks.
	Members(ctx context.Context) ([]Member, error)
	// Stats returns the connected node's balancer and steal counters.
	Stats(ctx context.Context) (ClusterStats, error)
	// Watch streams a job's lifecycle: started, every migration (pushed,
	// stolen or rebalanced, with source, destination and hop count), the
	// result flushing home, completed. Retained history replays first, so
	// watching after submission loses nothing. The channel closes after
	// the terminal event, when ctx ends, or when the connection to the
	// cluster is lost. Over a daemon, Submit already opened the job's
	// stream: the first Watch of a job from the client that submitted it
	// takes that stream and costs no round trip; any other Watch asks
	// the daemon for a stream of its own. A Watch or WatchAll whose ctx
	// has already ended fails with ctx's error.
	Watch(ctx context.Context, jobID uint64) (<-chan JobEvent, error)
	// WatchAll streams every job event from every node in the cluster
	// through one subscription — the feed behind dashboards and sodctl
	// top. Streams are keyed by (Origin, Job): job ids are only unique
	// per origin node. No history replays; the stream starts now. The
	// channel never closes on any one job's terminal event — it closes
	// when ctx ends, when the connection is lost, or when the cluster
	// evicts this consumer for not draining (the backpressure contract:
	// a slow consumer's non-terminal events are coalesced away behind
	// JobLagged markers carrying the drop count; terminal events are
	// never silently dropped, so a consumer that counts completions
	// stays exact — one too slow to keep even job outcomes is evicted,
	// observed as the channel closing while ctx is still live).
	WatchAll(ctx context.Context) (<-chan JobEvent, error)
	// Metrics snapshots the connected node's metrics registry: counters,
	// gauges and histograms covering migrations (per reason and phase),
	// chain planting/forwarding, steals, result flushing, the event bus
	// and membership transitions. Per-node; merge snapshots across nodes
	// with MetricsSnapshot.Merge for a cluster view.
	Metrics(ctx context.Context) (*MetricsSnapshot, error)
	// Trace returns a job's span timeline: one root span for the job's
	// lifetime plus a capture/transfer/restore triple under each
	// migration hop and a plant/forward span per chain segment, causally
	// ordered at the job's origin node (spans from remote hops ride home
	// over the data plane). Ask through the node that started the job;
	// traces for the last 256 jobs are retained.
	Trace(ctx context.Context, jobID uint64) ([]TraceSpan, error)
	// Close releases the client's resources. The cluster keeps running.
	Close() error
}

// MetricsSnapshot is a point-in-time copy of one node's metrics
// registry (see internal/obs): RenderPrometheus gives the text
// exposition, Merge folds several nodes into a cluster view.
type MetricsSnapshot = obs.Snapshot

// TraceSpan is one entry of a job's migration timeline; RenderSpans
// formats a whole trace the way sodctl trace does.
type TraceSpan = obs.Span

// RenderSpans formats a job trace as an indented, causally-ordered
// timeline (the sodctl trace rendering).
func RenderSpans(spans []TraceSpan) string { return obs.RenderTrace(spans) }

// JobHandle is one submitted job. Cancellation and deadlines come from
// the context, and an abandoned Wait leaks nothing.
type JobHandle interface {
	// ID is the job's identity at its origin node — the id Watch takes.
	ID() uint64
	// Wait blocks for the job's final result, wherever in the cluster it
	// completes. A ctx error means the wait ended, not the job. Over a
	// daemon, a handle from Submit resolves locally from the terminal
	// event on the stream its Submit opened; it asks the daemon only if
	// that stream ended without one, and handles from Job always ask.
	Wait(ctx context.Context) (Value, error)
	// Done reports completion without blocking.
	Done() bool
}

// JobEvent is one entry of a job's lifecycle stream; see the Kind for
// which fields apply.
type JobEvent = sodee.JobEvent

// EventKind discriminates job lifecycle events.
type EventKind = sodee.EventKind

// Job lifecycle event kinds.
const (
	JobStarted          = sodee.EvStarted
	JobMigrated         = sodee.EvMigrated
	JobResultFlushed    = sodee.EvResultFlushed
	JobCompleted        = sodee.EvCompleted
	JobMigrationFailed  = sodee.EvMigrationFailed
	JobSegmentPlanted   = sodee.EvSegmentPlanted
	JobSegmentForwarded = sodee.EvSegmentForwarded
	// JobLagged is synthetic, per-subscription: the consumer fell behind
	// and Result non-terminal events were coalesced away since the
	// previous delivery. Terminal events are never coalesced.
	JobLagged = sodee.EvLagged
)

// MigrateReason says which side of the elasticity engine moved a job.
type MigrateReason = sodee.MigrateReason

// Migration reasons carried by JobMigrated events.
const (
	MigrateManual     = sodee.ReasonManual
	MigratePushed     = sodee.ReasonPushed
	MigrateStolen     = sodee.ReasonStolen
	MigrateRebalanced = sodee.ReasonRebalanced
	MigrateChained    = sodee.ReasonChained
)

// MemberState is a failure detector's verdict on a peer.
type MemberState = membership.State

// Member is one row of a node's cluster view.
type Member struct {
	Node  int
	State MemberState
	// SinceHeard is how long ago the node last had evidence the member
	// was alive (zero for itself).
	SinceHeard time.Duration
	// Addr is the member's listen address (daemon clusters only).
	Addr string
	// Self marks the node the client is connected to.
	Self bool
}

// ClusterStats aggregates the connected node's elasticity counters.
type ClusterStats struct {
	Balance BalanceStats
	Steal   StealStats
}

// --- in-process implementation ---

// Client returns a Client driving this cluster through its lowest-id
// node. ClientOn selects a specific node.
func (c *Cluster) Client() Client {
	ids := make([]int, 0, len(c.inner.Nodes))
	for id := range c.inner.Nodes {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		panic("sod: Client on a cluster with no nodes")
	}
	sort.Ints(ids)
	cl, err := c.ClientOn(ids[0])
	if err != nil {
		panic(err) // unreachable: the id came from the node table
	}
	return cl
}

// ClientOn returns a Client submitting through node id.
func (c *Cluster) ClientOn(id int) (Client, error) {
	n, ok := c.inner.Nodes[id]
	if !ok {
		return nil, fmt.Errorf("sod: cluster has no node %d", id)
	}
	return &clusterClient{c: c, n: n}, nil
}

type clusterClient struct {
	c *Cluster
	n *sodee.Node
}

func (cc *clusterClient) Submit(ctx context.Context, method string, args ...Value) (JobHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := cc.n.Mgr.StartJob(method, args...)
	if err != nil {
		return nil, err
	}
	return localJob{j}, nil
}

func (cc *clusterClient) SubmitChain(ctx context.Context, method string, args ...Value) (JobHandle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := cc.n.Mgr.StartJobChained(method, args...)
	if err != nil {
		return nil, err
	}
	return localJob{j}, nil
}

func (cc *clusterClient) Job(id uint64) (JobHandle, error) {
	j, ok := cc.n.Mgr.Job(id)
	if !ok {
		return nil, fmt.Errorf("sod: no job %d", id)
	}
	return localJob{j}, nil
}

func (cc *clusterClient) Members(ctx context.Context) ([]Member, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := time.Now()
	out := []Member{{Node: cc.n.ID, State: membership.Alive, Self: true}}
	for _, m := range cc.n.Members.Snapshot() {
		out = append(out, Member{
			Node:       m.Node,
			State:      m.State,
			SinceHeard: now.Sub(m.LastHeard),
		})
	}
	sortMembers(out)
	return out, nil
}

func (cc *clusterClient) Stats(ctx context.Context) (ClusterStats, error) {
	if err := ctx.Err(); err != nil {
		return ClusterStats{}, err
	}
	st := ClusterStats{Steal: cc.n.Mgr.StealStats()}
	cc.c.mu.Lock()
	bal := cc.c.bal
	cc.c.mu.Unlock()
	if bal != nil {
		st.Balance = bal.Stats()
	}
	return st, nil
}

func (cc *clusterClient) Watch(ctx context.Context, jobID uint64) (<-chan JobEvent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inner, cancel, ok := cc.n.Mgr.Events().Subscribe(jobID)
	if !ok {
		return nil, fmt.Errorf("sod: no job %d", jobID)
	}
	return watchWithContext(ctx, inner, cancel), nil
}

// WatchAll on the in-process surface merges every node's bus firehose
// into one stream — the same merged feed a daemon's hub serves, without
// the wire. Per-node forwarders block on a slow consumer, which pushes
// the backpressure into each bus's per-subscription ring where the
// coalescing/eviction contract lives.
func (cc *clusterClient) WatchAll(ctx context.Context) (<-chan JobEvent, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type feed struct {
		ch     <-chan JobEvent
		cancel func()
	}
	feeds := make([]feed, 0, len(cc.c.inner.Nodes))
	for _, n := range cc.c.inner.Nodes {
		ch, cancel := n.Mgr.Events().SubscribeAll()
		feeds = append(feeds, feed{ch, cancel})
	}
	out := make(chan JobEvent, 64)
	var wg sync.WaitGroup
	for _, f := range feeds {
		wg.Add(1)
		go func(f feed) {
			defer wg.Done()
			defer f.cancel()
			for {
				select {
				case ev, ok := <-f.ch:
					if !ok {
						return // evicted
					}
					select {
					case out <- ev:
					case <-ctx.Done():
						return
					}
				case <-ctx.Done():
					return
				}
			}
		}(f)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

func (cc *clusterClient) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cc.n.Obs.Snapshot(), nil
}

func (cc *clusterClient) Trace(ctx context.Context, jobID uint64) ([]TraceSpan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	spans := cc.n.Trace.Get(jobID)
	if len(spans) == 0 {
		return nil, fmt.Errorf("sod: no trace for job %d (wrong origin node, or evicted)", jobID)
	}
	return spans, nil
}

func (cc *clusterClient) Close() error { return nil }

// localJob adapts a runtime job to JobHandle.
type localJob struct{ j *sodee.Job }

func (h localJob) ID() uint64 { return h.j.ID }
func (h localJob) Done() bool { return h.j.Done() }
func (h localJob) Wait(ctx context.Context) (Value, error) {
	return h.j.WaitContext(ctx)
}

// --- daemon-backed implementation ---

// Dial connects a Client to the sodd daemon at addr; the control-protocol
// versions must match (a skew fails here, with a clear error).
func Dial(addr string) (Client, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with a bound on how long a dead address is retried
// (0 keeps the default, ~5s).
func DialTimeout(addr string, timeout time.Duration) (Client, error) {
	dc, err := daemon.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &daemonClient{c: dc}, nil
}

type daemonClient struct {
	c *daemon.Client
}

func (dc *daemonClient) Submit(ctx context.Context, method string, args ...Value) (JobHandle, error) {
	return dc.submit(ctx, dc.c.Submit, method, args)
}

func (dc *daemonClient) SubmitChain(ctx context.Context, method string, args ...Value) (JobHandle, error) {
	return dc.submit(ctx, dc.c.SubmitChain, method, args)
}

func (dc *daemonClient) submit(ctx context.Context, op func(context.Context, string, ...int64) (*daemon.Job, error), method string, args []Value) (JobHandle, error) {
	ints := make([]int64, len(args))
	for i, a := range args {
		if a.Kind != value.KindInt {
			return nil, fmt.Errorf("sod: daemon submissions carry integer arguments only (arg %d is %v)", i, a.Kind)
		}
		ints[i] = a.I
	}
	j, err := op(ctx, method, ints...)
	if err != nil {
		return nil, err
	}
	return remoteJob{j}, nil
}

func (dc *daemonClient) Job(id uint64) (JobHandle, error) {
	// Probe: a zero-timeout wait answers instantly and errors for an
	// unknown id.
	if _, _, _, err := dc.c.Wait(context.Background(), id, 0); err != nil {
		return nil, err
	}
	return remoteJob{dc.c.Job(id)}, nil
}

func (dc *daemonClient) Members(ctx context.Context) ([]Member, error) {
	self, members, err := dc.c.Members(ctx)
	if err != nil {
		return nil, err
	}
	out := []Member{{Node: self, State: membership.Alive, Self: true}}
	for _, m := range members {
		out = append(out, Member{
			Node:       m.Node,
			State:      m.State,
			SinceHeard: m.SinceHeard,
			Addr:       m.Addr,
		})
	}
	sortMembers(out)
	return out, nil
}

func (dc *daemonClient) Stats(ctx context.Context) (ClusterStats, error) {
	bal, steal, err := dc.c.Stats(ctx)
	return ClusterStats{Balance: bal, Steal: steal}, err
}

// Daemon streams end when ctx does on their own, so they are returned
// as they are.
func (dc *daemonClient) Watch(ctx context.Context, jobID uint64) (<-chan JobEvent, error) {
	ch, _, err := dc.c.Watch(ctx, jobID)
	return ch, err
}

func (dc *daemonClient) WatchAll(ctx context.Context) (<-chan JobEvent, error) {
	ch, _, err := dc.c.WatchAll(ctx)
	return ch, err
}

func (dc *daemonClient) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	return dc.c.Metrics(ctx)
}

func (dc *daemonClient) Trace(ctx context.Context, jobID uint64) ([]TraceSpan, error) {
	return dc.c.Trace(ctx, jobID)
}

func (dc *daemonClient) Close() error {
	dc.c.Close()
	return nil
}

// remoteJob adapts a daemon job to JobHandle. A submitted job answers
// Wait and Done from its event stream's terminal event.
type remoteJob struct{ j *daemon.Job }

func (h remoteJob) ID() uint64 { return h.j.ID() }

func (h remoteJob) Wait(ctx context.Context) (Value, error) {
	res, errMsg, err := h.j.Wait(ctx)
	if err != nil {
		return Value{}, err
	}
	if errMsg != "" {
		return Value{}, fmt.Errorf("sod: job %d failed: %s", h.j.ID(), errMsg)
	}
	return Int(res), nil
}

func (h remoteJob) Done() bool {
	done, err := h.j.Done(context.Background())
	return err == nil && done
}

// watchWithContext bridges a bus subscription to a channel whose
// lifetime is bounded by ctx: events forward until the stream ends or
// ctx does, and the subscription is released either way.
func watchWithContext(ctx context.Context, inner <-chan JobEvent, cancel func()) <-chan JobEvent {
	out := make(chan JobEvent, 32)
	go func() {
		defer close(out)
		defer cancel()
		for {
			select {
			case ev, ok := <-inner:
				if !ok {
					return
				}
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
				if ev.Terminal() {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}

func sortMembers(ms []Member) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Node < ms[j].Node })
}
