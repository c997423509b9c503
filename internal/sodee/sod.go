package sodee

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bytecode"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serial"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Flow selects the post-completion control path of a SOD migration —
// Fig 1's three scenarios.
type Flow int

const (
	// FlowReturnHome (Fig 1a): the home node keeps the residual stack; the
	// segment's return value flows back and execution resumes at home.
	FlowReturnHome Flow = iota
	// FlowTotal (Fig 1b): the residual frames are pushed to the
	// destination as well; after the segment pops, execution continues
	// locally there — a total migration.
	FlowTotal
	// FlowForward (Fig 1c): the residual is planted on a third node; the
	// segment's return value is forwarded there — multi-domain workflow.
	FlowForward
)

// MigrationMetrics records one migration event's cost breakdown — the
// quantities of Tables III, IV and VII.
type MigrationMetrics struct {
	Capture    time.Duration // request received → state ready to transfer
	Transfer   time.Duration // state ready → arrived at destination
	Restore    time.Duration // arrival → execution resumed
	Latency    time.Duration // capture + transfer + restore
	StateBytes int64
	ClassBytes int64
}

// Job is one top-level computation started on a node — or, when remote is
// set, a migrated-in computation this node is currently hosting. Its
// result arrives locally or via flush messages from wherever the
// computation ended up; a remote job's result is instead routed onward to
// resultTo (usually the job's origin node) when it completes here.
type Job struct {
	ID     uint64
	mgr    *Manager
	mu     sync.Mutex
	th     *vm.Thread // current local thread; nil once fully migrated away
	done   chan struct{}
	result value.Value
	err    error

	// Migration trace (guarded by mu): hops already taken and when the job
	// last left each node. The balancer's hop gate reads it; both fields
	// travel inside the captured state on every further migration.
	hops    int
	visited map[int]time.Time

	// remote marks a migrated-in job: the stack arrived from another node,
	// this Job is the local handle that makes it visible to the balancer
	// (and so eligible for re-balancing and stealing). Its completion is
	// routed to resultTo rather than delivered to a local waiter;
	// resultFallback, when set, is where the result goes instead if the
	// consumer named by resultTo is unreachable (a chain link's recovery
	// route at the chain's origin).
	remote         bool
	resultTo       completion
	resultFallback completion
	expectValue    bool

	// chained marks a job submitted for chain-planned execution: the
	// balancer's chain planner owns its placement (StartJobChained). The
	// mark travels with the stack, so a chained job stolen or pushed
	// before its planner fires stays planner-owned at its new host.
	chained bool

	// evJob/evOrigin, when set, are the job's event identity: lifecycle
	// events publish to evOrigin's bus under id evJob. They diverge from
	// resultTo for activated chain links, whose results flow to the NEXT
	// link's plant token rather than to the origin's job handle.
	evJob    uint64
	evOrigin int

	// waiting marks a job whose local thread is a parked residual holding
	// a resume route — the thread is not executing and must not be
	// captured for migration until its value arrives (the route holds a
	// pointer into it).
	waiting bool

	// started stamps the origin-side submission time; the job's root trace
	// span runs from here to completion. Zero for remote wrappers, whose
	// trace belongs to their origin.
	started time.Time

	// shadowOf marks a re-homing shadow (rehome.go): the origin node whose
	// job this handle stands in for at its successor (0 = not a shadow).
	// quiet suppresses the terminal event publication in complete() — set
	// when the shadow is retired by the origin's normal completion, whose
	// stream already terminated at the origin's bus.
	shadowOf int
	quiet    bool

	// replicated is set (guarded by mu) when a home-grown job first leaves
	// its origin and closed once its origin shadow replication returned
	// (replicateOnce in rehome.go). nil: the job never left, so no
	// successor knows it.
	replicated chan struct{}
}

// Thread returns the job's current local thread (nil once fully migrated).
func (j *Job) Thread() *vm.Thread {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.th
}

// Detach takes the job's thread away from it: a migration that moved the
// whole stack elsewhere calls it before killing the local thread, so the
// thread's end no longer completes or routes the job here.
func (j *Job) Detach() {
	j.mu.Lock()
	j.th = nil
	j.mu.Unlock()
}

// Remote reports whether this is a migrated-in job hosted for another
// node (its result routes onward rather than completing a local waiter).
func (j *Job) Remote() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.remote
}

// Chained reports whether the job was submitted for chain-planned
// execution (the balancer's chain planner owns its placement).
func (j *Job) Chained() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.chained
}

// migratable reports whether the job's thread may be captured right now:
// it has one, and it is not a parked residual waiting for a forwarded
// value (capturing that would orphan its resume route).
func (j *Job) migratable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.th != nil && !j.waiting
}

// Trace snapshots the job's migration history for the policy layer.
func (j *Job) Trace() policy.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	tr := policy.Trace{Hops: j.hops}
	if len(j.visited) > 0 {
		tr.Visited = make(map[int]time.Time, len(j.visited))
		for n, t := range j.visited {
			tr.Visited[n] = t
		}
	}
	return tr
}

// Wait blocks for the final result.
func (j *Job) Wait() (value.Value, error) {
	<-j.done
	return j.result, j.err
}

// WaitContext blocks for the final result or the context's end, whichever
// comes first — no goroutine is spawned, so an abandoned wait leaks
// nothing. A ctx error never means the job failed; it is still running.
func (j *Job) WaitContext(ctx context.Context) (value.Value, error) {
	select {
	case <-j.done:
		return j.result, j.err
	case <-ctx.Done():
		return value.Value{}, ctx.Err()
	}
}

// Done reports whether the job has completed.
func (j *Job) Done() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

func (j *Job) complete(res value.Value, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-j.done:
		return
	default:
	}
	j.result = res
	j.err = err
	close(j.done)
	// A remote wrapper's completion is an implementation detail of the
	// hosting node; the origin's handle publishes the terminal event when
	// the flushed result lands there.
	if !j.remote && j.mgr != nil {
		if !j.started.IsZero() {
			// Close the trace's root span (upserting the open one emitted
			// at submission).
			j.mgr.node.Trace.Add(obs.Span{
				ID: obs.RootSpanID, Job: j.ID, Node: j.mgr.node.ID,
				Name: "job", Start: j.started, Dur: time.Since(j.started),
			})
		}
		if !j.quiet {
			ev := JobEvent{
				Job: j.ID, Kind: EvCompleted,
				From: j.mgr.node.ID, To: j.mgr.node.ID,
				Result: res.I,
			}
			if err != nil {
				ev.Err = err.Error()
			}
			j.mgr.bus.Publish(ev)
		}
		if j.shadowOf != 0 {
			j.mgr.retireShadow(j.ID, !j.quiet)
		} else if fb := j.resultFallback; fb != (completion{}) {
			// The origin completed a replicated job normally: retire its
			// shadow at the successor so the dormant copy never resurfaces.
			// Synchronous on purpose: the result usually arrives here by
			// acknowledged flush, and the discharge must be on the wire
			// before that ack — an origin that crashes between the two then
			// also fails the ack, and the executing node re-routes the
			// result to the successor itself.
			j.mgr.sendDischarge(j.ID, fb, res, err)
		}
		j.mgr.retire(j)
	}
}

// routeKind discriminates what a flush token resolves to.
type routeKind int

const (
	routeJob          routeKind = iota // complete a job
	routeResume                        // resume a parked residual thread
	routePlanted                       // start a pre-restored continuation
	routeChainRecover                  // rebuild a chain link whose planted node died
)

// chainLinkMeta identifies a planted chain link for eventing and for the
// job wrapper it becomes when control reaches it: which job and origin it
// belongs to, its position in the plan, and the hop metadata its frames
// arrived with (visits re-based to this node's clock).
type chainLinkMeta struct {
	job     uint64
	origin  int
	seg     int
	segOf   int
	hops    int
	visited map[int]time.Time
}

type route struct {
	kind        routeKind
	job         *Job
	th          *vm.Thread
	expectValue bool
	// next is where the routed thread's own completion goes afterwards;
	// fallback is where it goes instead when next is unreachable (a chain
	// recovery route).
	next     completion
	fallback completion
	// chain is set on chain-link routes (planted or recovery): the link
	// publishes segment events and runs as a re-balance-eligible job.
	chain *chainLinkMeta
	// seg holds a recovery route's retained frames (routeChainRecover).
	seg *serial.CapturedState
}

// completion addresses the consumer of a thread's final result.
type completion struct {
	node  int
	token uint64
}

// Manager is a node's migration manager (the paper's "migration manager"
// module, one per node, talking to its peers).
type Manager struct {
	node *Node

	// The hot tables are lock-sharded (see internal/shard): every Submit,
	// flush delivery and remote adoption touches them, and a swarm of
	// concurrent clients must not serialize on one mutex. m.mu below
	// guards only the cold bookkeeping.
	routes *shard.Map[*route]
	// jobs is the live-job table: local jobs running, parked or migrated
	// away awaiting their result, migrated-in wrappers, and undischarged
	// re-homing shadows. A finished job moves to the finished FIFO, so the
	// balancer's scans cost the live population, not the node's history.
	jobs     *shard.Map[*Job]
	finished jobRing
	// nextToken allocates job ids and route tokens lock-free.
	nextToken atomic.Uint64

	// migInFlight guards each job against concurrent migrations: the
	// balancer's push decision and a peer's steal grant can race on the
	// same job, and only one may capture it (SetIfAbsent is the
	// test-and-set).
	migInFlight *shard.Map[struct{}]

	mu          sync.Mutex
	classSource int // node to fetch cold classes from
	classBytes  int64

	// chainRecov tracks the chain recovery routes registered per local
	// job (job id → route tokens), so they can be purged when the job
	// completes without needing them.
	chainRecov map[uint64][]uint64

	// Steal configuration (nil = this node denies steal requests) and the
	// node-local steal counters.
	steal      *stealConfig
	stealStats StealStats

	// Gossiped load state: the last report received from each peer, and
	// the sampling cursor for this node's own step rate. lastRate keeps
	// the most recent sampled rate so piggybacked reports can reuse it
	// without advancing the cursor (see piggybackSignals). gossipCursor
	// rotates PublishLoad's bounded fanout window over the known set.
	peerLoads    map[int]policy.Signals
	lastInstr    uint64
	lastSample   time.Time
	lastRate     float64
	gossipCursor int

	// Origin re-homing (rehome.go): the shadows this node holds as
	// designated successor, keyed by job id.
	rehomeMu   sync.Mutex
	shadowJobs map[uint64]*originShadow
	// probeBusy marks peers with an indirect-probe round in flight, so
	// each heartbeat accusation launches at most one concurrent round.
	probeBusy map[int]bool

	// Delta wire state (deltacache.go): per-peer link caches of migration
	// units, the capability bytes peers advertised via gossip, this node's
	// own advertised capabilities, and the per-peer timestamp of the last
	// piggybacked load report.
	deltaMu   sync.Mutex
	links     map[int]*linkCache
	peerCaps  map[int]byte
	selfCaps  byte
	lastPiggy map[int]time.Time

	// wireLat holds an EWMA of the measured per-migration wire latency to
	// each destination — the cost-model calibration source: once a real
	// transfer has been timed, policies score that link by observation
	// instead of by static hint.
	wireLat map[int]time.Duration

	// bus publishes job lifecycle events for jobs that originated on this
	// node; peers acting on a migrated-in job forward their events here.
	bus *Bus

	// met holds the pre-registered hot-path instruments (see mgrMetrics);
	// name lookups happen once, at construction.
	met *mgrMetrics
}

// mgrMetrics is the manager's pre-registered instrument panel. Counters
// and histograms live in the node's Registry under the sod_* names the
// README catalogs; the hot paths hold these pointers so an increment is
// one striped atomic add, never a map lookup.
type mgrMetrics struct {
	migrations  [5]*obs.Counter // sod_migrations_total{reason=...}, indexed by MigrateReason
	migFailures *obs.Counter
	captureSec  *obs.Histogram
	transferSec *obs.Histogram
	restoreSec  *obs.Histogram
	latencySec  *obs.Histogram
	stateBytes  *obs.Histogram

	chainPlanted   *obs.Counter
	chainForwarded *obs.Counter
	flushRetries   *obs.Counter

	stealRTTSec     *obs.Histogram
	stealReqSent    *obs.Counter
	stealWon        *obs.Counter
	stealReqServed  *obs.Counter
	stealGranted    *obs.Counter
	stealDenied     *obs.Counter
	stealFailedXfer *obs.Counter

	deltaHits        *obs.Counter // units sent as cache references
	deltaSaved       *obs.Counter // wire bytes avoided by those references
	deltaMisses      *obs.Counter // full resends after a reference failed
	gossipPiggyback  *obs.Counter // load reports that rode a migration
	gossipSuppressed *obs.Counter // dedicated reports skipped as redundant

	probeAcks       *obs.Counter // indirect-probe rounds answered by a relay
	probeMisses     *obs.Counter // completed rounds with no relay reaching the target
	pingReqServed   *obs.Counter // ping-req relays this node performed for peers
	updatesGossiped *obs.Counter // membership verdicts piggybacked on outgoing gossip

	rehomeReplicated *obs.Counter // origin shadows installed at a successor
	rehomeAdopted    *obs.Counter // shadows adopted after the origin died
	rehomeDiscarded  *obs.Counter // shadows retired by the origin's normal completion
	rehomeCompleted  *obs.Counter // re-homed results delivered at the successor
}

func newMgrMetrics(r *obs.Registry) *mgrMetrics {
	mm := &mgrMetrics{
		migFailures: r.Counter("sod_migration_failures_total"),
		captureSec:  r.Histogram("sod_migration_capture_seconds", obs.DurationBuckets),
		transferSec: r.Histogram("sod_migration_transfer_seconds", obs.DurationBuckets),
		restoreSec:  r.Histogram("sod_migration_restore_seconds", obs.DurationBuckets),
		latencySec:  r.Histogram("sod_migration_latency_seconds", obs.DurationBuckets),
		stateBytes:  r.Histogram("sod_migration_state_bytes", obs.ByteBuckets),

		chainPlanted:   r.Counter("sod_chain_links_planted_total"),
		chainForwarded: r.Counter("sod_chain_links_forwarded_total"),
		flushRetries:   r.Counter("sod_flush_retries_total"),

		stealRTTSec:     r.Histogram("sod_steal_round_trip_seconds", obs.DurationBuckets),
		stealReqSent:    r.Counter("sod_steal_requests_sent_total"),
		stealWon:        r.Counter("sod_steal_won_total"),
		stealReqServed:  r.Counter("sod_steal_requests_served_total"),
		stealGranted:    r.Counter("sod_steal_granted_total"),
		stealDenied:     r.Counter("sod_steal_denied_total"),
		stealFailedXfer: r.Counter("sod_steal_failed_transfers_total"),

		deltaHits:        r.Counter("sod_delta_hits_total"),
		deltaSaved:       r.Counter("sod_delta_bytes_saved"),
		deltaMisses:      r.Counter("sod_delta_misses_total"),
		gossipPiggyback:  r.Counter("sod_gossip_piggybacked_total"),
		gossipSuppressed: r.Counter("sod_gossip_suppressed_total"),

		probeAcks:       r.Counter(obs.Label("sod_membership_probes_total", "result", "ack")),
		probeMisses:     r.Counter(obs.Label("sod_membership_probes_total", "result", "miss")),
		pingReqServed:   r.Counter("sod_membership_pingreq_total"),
		updatesGossiped: r.Counter("sod_membership_updates_total"),

		rehomeReplicated: r.Counter("sod_rehome_replicated_total"),
		rehomeAdopted:    r.Counter("sod_rehome_adopted_total"),
		rehomeDiscarded:  r.Counter("sod_rehome_discarded_total"),
		rehomeCompleted:  r.Counter("sod_rehome_completed_total"),
	}
	for i := range mm.migrations {
		mm.migrations[i] = r.Counter(obs.Label("sod_migrations_total", "reason", MigrateReason(i).String()))
	}
	return mm
}

// observeMigration feeds one successful migration into the registry:
// per-reason count, phase histograms, and the per-destination byte
// counter (the future `-table wire` baseline).
func (m *Manager) observeMigration(mm *MigrationMetrics, reason MigrateReason, dest int, payloadBytes int64) {
	mt := m.met
	mt.migrations[int(reason)%len(mt.migrations)].IncKeyed(uint64(dest))
	mt.captureSec.ObserveDuration(int64(mm.Capture))
	mt.transferSec.ObserveDuration(int64(mm.Transfer))
	mt.restoreSec.ObserveDuration(int64(mm.Restore))
	mt.latencySec.ObserveDuration(int64(mm.Latency))
	mt.stateBytes.Observe(float64(mm.StateBytes))
	m.node.Obs.Counter(obs.Label("sod_migration_bytes_total", "dest", strconv.Itoa(dest))).
		AddKeyed(uint64(dest), payloadBytes)
}

func newManager(n *Node) *Manager {
	m := &Manager{
		node:        n,
		routes:      shard.NewMap[*route](),
		jobs:        shard.NewMap[*Job](),
		migInFlight: shard.NewMap[struct{}](),
		chainRecov:  make(map[uint64][]uint64),
		peerLoads:   make(map[int]policy.Signals),
		wireLat:     make(map[int]time.Duration),
		links:       make(map[int]*linkCache),
		peerCaps:    make(map[int]byte),
		selfCaps:    capDelta,
		lastPiggy:   make(map[int]time.Time),
		shadowJobs:  make(map[uint64]*originShadow),
		probeBusy:   make(map[int]bool),
		classSource: -1,
		bus:         NewBus(n.ID),
		met:         newMgrMetrics(n.Obs),
	}
	// Job ids double as flush-route tokens and must be cluster-unique —
	// origin re-homing registers a job's id as a route at its successor,
	// so two nodes minting the same id would collide there. Seed the token
	// stream with the node id in the high 32 bits (mirroring spanID's
	// scheme, whose low-bits mask keeps span uniqueness intact).
	m.nextToken.Store(uint64(uint32(n.ID)) << 32)
	// A peer that died or rejoined lost its half of every link cache:
	// referencing units against it would at best miss and at worst (death,
	// restart, re-listen on the same id) resolve against a stale cache.
	// Evict on both transitions; the cache rebuilds on the next migration.
	n.Members.OnChange(func(ev membership.Event) {
		if ev.State == membership.Dead || ev.State == membership.Alive {
			m.dropLink(ev.Node)
		}
		if ev.State == membership.Dead {
			m.adoptOrigin(ev.Node)
		}
	})
	n.Obs.GaugeFunc("sod_jobs_live", func() int64 { return int64(m.jobs.Len()) })
	n.Obs.GaugeFunc("sod_jobs_retained", func() int64 { return int64(m.finished.len()) })
	m.bus.SetObs(
		n.Obs.Counter("sod_events_published_total"),
		n.Obs.Counter("sod_events_coalesced_total"),
		n.Obs.Counter("sod_event_subs_evicted_total"),
	)
	n.EP.Handle(netsim.KindMigrate, m.handleMigrate)
	n.EP.Handle(netsim.KindFlush, m.handleFlush)
	n.EP.Handle(netsim.KindClassRequest, m.handleClassRequest)
	n.EP.Handle(netsim.KindLoadReport, m.handleLoadReport)
	n.EP.Handle(netsim.KindStealRequest, m.handleStealRequest)
	n.EP.Handle(netsim.KindStealGrant, m.handleStealGrant)
	n.EP.Handle(netsim.KindJobEvent, m.handleJobEvent)
	n.EP.Handle(netsim.KindTraceSpan, m.handleTraceSpan)
	n.EP.Handle(netsim.KindPing, m.handlePing)
	n.EP.Handle(netsim.KindPingReq, m.handlePingReq)
	n.EP.Handle(netsim.KindRehome, m.handleRehome)
	return m
}

// spanID derives a trace-unique span id from this node's token stream:
// node id in the high 32 bits, a fresh token in the low bits — spans
// emitted concurrently by different source nodes for the same job can
// never collide, and never collide with RootSpanID (token 0 is unused).
func (m *Manager) spanID() uint64 {
	return uint64(uint32(m.node.ID))<<32 | (m.newToken() & 0xFFFFFFFF)
}

// emitSpans delivers spans to the trace store at the job's origin:
// locally when this node is the origin, otherwise forwarded over
// KindTraceSpan. Best effort, like the event stream — a span is
// telemetry, never load-bearing state.
func (m *Manager) emitSpans(origin int, spans ...obs.Span) {
	if origin == m.node.ID {
		m.node.Trace.Add(spans...)
		return
	}
	m.node.EP.Send(origin, netsim.KindTraceSpan, obs.EncodeSpans(spans)) //nolint:errcheck // best effort
}

// handleTraceSpan receives forwarded spans for jobs that originated here.
func (m *Manager) handleTraceSpan(from int, payload []byte) ([]byte, error) {
	spans, err := obs.DecodeSpans(payload)
	if err != nil {
		return nil, err
	}
	m.node.Trace.Add(spans...)
	return nil, nil
}

func (m *Manager) reset() {
	m.routes.Clear()
	m.jobs.Clear()
	m.finished.clear()
	m.migInFlight.Clear()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chainRecov = make(map[uint64][]uint64)
	m.peerLoads = make(map[int]policy.Signals)
	m.wireLat = make(map[int]time.Duration)
	m.lastRate = 0
	m.deltaMu.Lock()
	m.links = make(map[int]*linkCache)
	m.peerCaps = make(map[int]byte)
	m.lastPiggy = make(map[int]time.Time)
	m.deltaMu.Unlock()
	m.classSource = -1
	m.classBytes = 0
	m.stealStats = StealStats{}
	// The bus is deliberately not replaced: it caps its own retention,
	// and swapping it would race with subscribers held across a Reset.
	// nextToken is not rewound either: stale tokens must never resolve.
}

// ewmaAlpha weights fresh wire-latency samples against history: heavy
// enough that a link-speed change shows within a few migrations, light
// enough that one outlier does not repaint the picture.
const ewmaAlpha = 0.3

// observeWireLatency folds one measured transfer time into the per-
// destination EWMA the balancer reads as the link's RTT estimate.
func (m *Manager) observeWireLatency(dest int, d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	if prev, ok := m.wireLat[dest]; ok {
		m.wireLat[dest] = time.Duration(float64(prev)*(1-ewmaAlpha) + float64(d)*ewmaAlpha)
	} else {
		m.wireLat[dest] = d
	}
	m.mu.Unlock()
}

// WireLatency returns the calibrated wire latency toward dest, and
// whether any migration to dest has been measured yet.
func (m *Manager) WireLatency(dest int) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.wireLat[dest]
	return d, ok
}

// WireLatencies snapshots the calibrated per-destination latencies.
func (m *Manager) WireLatencies() map[int]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]time.Duration, len(m.wireLat))
	for id, d := range m.wireLat {
		out[id] = d
	}
	return out
}

// codecFor picks the wire codec for talking to a destination: a node
// without a tool interface speaks only Java serialization (§IV.D), so a
// sender uses it whenever either end does.
func (m *Manager) codecFor(dest int) serial.Codec {
	if m.node.Cluster != nil {
		if dn, ok := m.node.Cluster.Nodes[dest]; ok && dn.Codec == serial.JavaSer {
			return serial.JavaSer
		}
	}
	return m.node.Codec
}

func (m *Manager) newToken() uint64 {
	return m.nextToken.Add(1)
}

// --- jobs ---

// StartJob launches a thread on the node's VM running the named method
// and returns a handle whose result survives any number of migrations.
func (m *Manager) StartJob(qualifiedMethod string, args ...value.Value) (*Job, error) {
	return m.startJob(qualifiedMethod, false, args...)
}

// StartJobChained is StartJob for a job whose placement the balancer's
// chain planner owns: instead of whole-stack pushes, the job's stack is
// split into a multi-segment FlowForward pipeline when the planner finds
// a plan worth executing (the balancer must run with its Chain option).
func (m *Manager) StartJobChained(qualifiedMethod string, args ...value.Value) (*Job, error) {
	return m.startJob(qualifiedMethod, true, args...)
}

func (m *Manager) startJob(qualifiedMethod string, chained bool, args ...value.Value) (*Job, error) {
	mid := m.node.Prog.MethodByName(qualifiedMethod)
	if mid < 0 {
		return nil, fmt.Errorf("sodee: unknown method %q", qualifiedMethod)
	}
	th, err := m.node.VM.NewThread(mid, args...)
	if err != nil {
		return nil, err
	}
	th.UserData = &threadCtx{homeNode: -1}
	job := &Job{ID: m.newToken(), mgr: m, th: th, done: make(chan struct{}), chained: chained, started: time.Now()}
	m.jobs.Set(job.ID, job)
	m.routes.Set(job.ID, &route{kind: routeJob, job: job})
	// Open the trace's root span; complete() upserts it with the final
	// duration. Every migration/plant/forward span parents under it.
	m.node.Trace.Add(obs.Span{
		ID: obs.RootSpanID, Job: job.ID, Node: m.node.ID,
		Name: "job", Start: job.started,
	})
	m.bus.Publish(JobEvent{Job: job.ID, Kind: EvStarted, From: m.node.ID, To: m.node.ID})
	// No successor learns the job here: a job that never leaves this node
	// dies with it anyway, so its origin shadow is replicated only when
	// the stack first departs (MigrateSOD, rehome.go).
	go m.runAndWatch(th, job)
	return job, nil
}

// Job returns the handle of a job started on this node, or shadowed here
// for re-homing (migrated-in wrappers are excluded: their identity belongs
// to their origin). A finished job stays answerable until RetainedJobs
// younger ones have finished after it.
func (m *Manager) Job(id uint64) (*Job, bool) {
	if j, ok := m.jobs.Get(id); ok {
		if j.Remote() {
			return nil, false
		}
		return j, true
	}
	return m.finished.get(id)
}

// RetainedJobs bounds how many finished jobs a node keeps answerable:
// Manager.Job (and so Wait) from the finished FIFO, Watch from the event
// bus's ended histories. One bound for both, so the two surfaces forget a
// job at about the same point; far above the thousand-client swarm, so a
// client that submits and then waits or watches always finds its job.
const RetainedJobs = 4096

// retire moves a finished non-remote job out of the live table into the
// finished FIFO, and drops its own flush route if nothing consumed it (a
// job that finished locally never does). The FIFO insert comes first: a
// concurrent Job(id) looks in the live table, then the FIFO, so it finds
// the job in one or the other throughout. The route under the job's id can
// only be its own: ids are unique tokens, and a node never shadows its own
// jobs.
func (m *Manager) retire(j *Job) {
	m.finished.add(j)
	m.jobs.Delete(j.ID)
	m.routes.Delete(j.ID)
}

// jobRing is the bounded FIFO of finished jobs. Once full, each insert
// overwrites the oldest slot: O(1), never a rescan.
type jobRing struct {
	mu   sync.Mutex
	ring []*Job
	next int // oldest slot once the ring is full
	byID map[uint64]*Job
}

func (r *jobRing) add(j *Job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byID == nil {
		r.byID = make(map[uint64]*Job)
	}
	if len(r.ring) < RetainedJobs {
		r.ring = append(r.ring, j)
	} else {
		delete(r.byID, r.ring[r.next].ID)
		r.ring[r.next] = j
		r.next = (r.next + 1) % RetainedJobs
	}
	r.byID[j.ID] = j
}

func (r *jobRing) get(id uint64) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

func (r *jobRing) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}

func (r *jobRing) clear() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring, r.next, r.byID = nil, 0, nil
}

// runAndWatch executes a job's local thread and completes the job — but
// only while the job still considers this thread its own. A full
// migration detaches the thread (job.th = nil) before killing it, and a
// failed migration's local recovery attaches a replacement; either way
// the dying original must not write the job's result.
func (m *Manager) runAndWatch(th *vm.Thread, job *Job) {
	th.Run()
	job.mu.Lock()
	owner := job.th == th
	job.mu.Unlock()
	if !owner {
		return
	}
	job.complete(th.Result, th.Err)
	m.purgeChainRecovery(job.ID)
}

// runWorker runs a restored thread to completion and routes its results.
func (m *Manager) runWorker(th *vm.Thread, expectValue bool, dst, fallback completion) {
	th.Run()
	m.routeResult(th, expectValue, dst, fallback)
}

// RunRestored starts th, a thread restored from another node's captured
// state, and routes its result to the job token names at its origin node
// once it finishes. This is how a migration protocol that is not the
// node's own hands its restored thread to the node.
func (m *Manager) RunRestored(th *vm.Thread, origin int, token uint64) {
	go m.runWorker(th, th.Frames[0].Method.ReturnsValue, completion{node: origin, token: token}, completion{})
}

// runRemoteJob executes a migrated-in job's thread and — when this node
// still owns it at completion — routes the result to the job's consumer
// and retires the local wrapper. A further migration detaches the thread
// first (job.th = nil); routing is then the new destination's problem.
func (m *Manager) runRemoteJob(th *vm.Thread, job *Job) {
	th.Run()
	job.mu.Lock()
	owner := job.th == th
	job.mu.Unlock()
	if !owner {
		return
	}
	job.complete(th.Result, th.Err)
	m.jobs.Delete(job.ID)
	m.routeResult(th, job.expectValue, job.resultTo, job.resultFallback)
}

// rebaseVisits converts a wire visit trace (ages) into absolute
// timestamps on this node's clock — the one treatment every migrated-in
// visit trace gets, so the cooldown works across machines with skewed
// wall clocks.
func rebaseVisits(visits []serial.Visit, now time.Time) map[int]time.Time {
	out := make(map[int]time.Time, len(visits))
	for _, v := range visits {
		out[int(v.Node)] = now.Add(-time.Duration(v.AgeNanos))
	}
	return out
}

// newRemoteJob builds the local Job handle for a migrated-in computation
// — the handle that makes it visible to this node's balancer, and so
// eligible for re-balancing and stealing.
func (m *Manager) newRemoteJob(th *vm.Thread, hops int, visited map[int]time.Time,
	resultTo, fallback completion, expectValue bool) *Job {
	job := &Job{
		ID: m.newToken(), mgr: m, th: th, done: make(chan struct{}),
		remote: true, resultTo: resultTo, resultFallback: fallback, expectValue: expectValue,
		hops: hops, visited: make(map[int]time.Time, len(visited)),
	}
	for n, t := range visited {
		job.visited[n] = t
	}
	return job
}

// adoptRemote wraps a migrated-in thread in a local Job handle carrying
// its hop metadata.
func (m *Manager) adoptRemote(th *vm.Thread, cs *serial.CapturedState, resultTo, fallback completion, expectValue bool) *Job {
	return m.newRemoteJob(th, int(cs.Hops), rebaseVisits(cs.Visited, time.Now()), resultTo, fallback, expectValue)
}

// registerRemote publishes an adopted job to the balancer once it is safe
// to migrate it again (i.e., restoration has finished — suspending a
// thread mid-restoration would capture a half-built stack). A job that
// already completed is skipped: its runner may have retired it already.
// The post-Set recheck closes the race where completion (and the
// runner's delete) lands between the Done probe and the Set — the entry
// must not outlive the job.
func (m *Manager) registerRemote(job *Job) {
	if job.Done() {
		return
	}
	m.jobs.Set(job.ID, job)
	if job.Done() {
		m.jobs.Delete(job.ID)
	}
}

// Result flushes survive transient partitions: a completed segment whose
// consumer is briefly unreachable (crashed-and-rejoining, or this node is
// itself cut off) holds the only copy of the result, so dropping the
// flush would lose the job. Retry with a fixed delay; the bound keeps a
// permanently dead consumer from pinning the goroutine forever.
const (
	flushRetryDelay    = 10 * time.Millisecond
	flushRetryAttempts = 300 // × flushRetryDelay ≈ 3 s of patience
	// preHopFlushAttempts bounds the pre-migration update flush: it runs
	// inside the balancer's tick, and the same data flushes again (with
	// full patience) when the segment completes.
	preHopFlushAttempts = 10
)

// sendFlushRetrying delivers one flush frame, retrying up to attempts
// times while either end is unreachable. Non-delivery errors (a handler
// failure at the receiver) are final: the frame arrived, retrying would
// double-apply.
func (m *Manager) sendFlushRetrying(node int, payload []byte, rpc bool, attempts int) error {
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if rpc {
			_, err = m.node.EP.Call(node, netsim.KindFlush, payload)
		} else {
			err = m.node.EP.Send(node, netsim.KindFlush, payload)
		}
		if err == nil || !isUnreachable(err) {
			return err
		}
		m.met.flushRetries.Inc()
		time.Sleep(flushRetryDelay)
	}
	return err
}

// flushUpdates sends dirty cached data back to the nodes mastering it
// (self-targeted updates apply locally). It runs at segment completion
// and before a stack leaves an intermediate hop — the departing thread's
// writes must be visible wherever it continues, because the next node
// faults objects from their masters, not from this cache. attempts
// bounds the per-destination retry window.
func (m *Manager) flushUpdates(staticsHome, attempts int) {
	for node, fm := range m.node.ObjMan.CollectUpdates(staticsHome) {
		if node == m.node.ID {
			if _, err := m.node.ObjMan.ApplyFlush(fm); err != nil {
				_ = err
			}
			continue
		}
		payload := encodeFlushMsg(0, fm, m.node.Prog, m.node.Codec)
		// Synchronous: updates must be applied at their home before the
		// result releases any continuation that might read them.
		if err := m.sendFlushRetrying(node, payload, true, attempts); err != nil {
			_ = err
		}
	}
}

// homeRefs rewrites every captured local and static value that points at
// a locally cached copy into its home reference (see objman.HomeRef), so
// the shipped state is location-independent.
func (m *Manager) homeRefs(cs *serial.CapturedState) {
	om := m.node.ObjMan
	for fi := range cs.Frames {
		for li, lv := range cs.Frames[fi].Locals {
			cs.Frames[fi].Locals[li] = om.HomeRef(lv)
		}
	}
	for si := range cs.Statics {
		for vi, sv := range cs.Statics[si].Values {
			cs.Statics[si].Values[vi] = om.HomeRef(sv)
		}
	}
}

// chainFlushAttempts bounds the retry window toward a chain continuation
// when a recovery fallback exists: a shorter patience is safe (the value
// is redirected, never dropped) and gets a crashed mid-chain link rebuilt
// at the origin in about a second instead of wedging for the full window.
const chainFlushAttempts = 100 // × flushRetryDelay ≈ 1 s

func (m *Manager) routeResult(th *vm.Thread, expectValue bool, dst, fallback completion) {
	if dst.node == m.node.ID {
		// Same-node delivery: the consumer shares this heap, so no flush
		// serialization happens and dirty state stays pending until a
		// result eventually leaves the node.
		m.deliverLocal(dst.token, th.Result, th.Err)
		return
	}
	// Updated data goes back to the nodes mastering it (§II.A); modified
	// statics go to the job's home node.
	staticsHome := m.node.ID
	if ctx, ok := th.UserData.(*threadCtx); ok && ctx.homeNode >= 0 {
		staticsHome = ctx.homeNode
	}
	m.flushUpdates(staticsHome, flushRetryAttempts)
	// The return value (with any fresh objects it drags along) goes to the
	// continuation.
	var errStr string
	if th.Err != nil {
		errStr = th.Err.Error()
	}
	fm := m.node.ObjMan.CollectResult(th.Result, expectValue, errStr)
	hasFallback := fallback != completion{}
	attempts := flushRetryAttempts
	if hasFallback {
		attempts = chainFlushAttempts
	}
	payload := encodeFlushMsg(dst.token, fm, m.node.Prog, m.node.Codec)
	// With a fallback route the flush must be *acknowledged*: a one-way
	// send accepted by the wire just before the consumer crashes looks
	// delivered to this node, so the redirect below would never fire and
	// the value would die with the consumer. An RPC only counts as
	// delivered once the consumer's handler ran; an unconfirmed delivery
	// fails unreachable and takes the fallback path. (A retried frame that
	// did land is dropped by the consumed flush route — never re-applied.)
	err := m.sendFlushRetrying(dst.node, payload, hasFallback, attempts)
	if err == nil || !isUnreachable(err) {
		return
	}
	if hasFallback {
		// The consumer is unreachable; reroute the value to the fallback —
		// a chain's recovery route, or a re-homed job's successor shadow —
		// which completes the job there instead of losing it. The fallback
		// can be this very node (a job executing at its own successor).
		if fallback.node == m.node.ID {
			m.deliverLocal(fallback.token, th.Result, th.Err)
			return
		}
		payload = encodeFlushMsg(fallback.token, fm, m.node.Prog, m.node.Codec)
		if ferr := m.sendFlushRetrying(fallback.node, payload, false, flushRetryAttempts); ferr != nil {
			_ = ferr // recovery route unreachable too: nowhere left to go
		}
		return
	}
	// Consumer still unreachable after the retry window and no fallback:
	// the result has nowhere to go.
	_ = err
}

// deliverLocal hands a same-node result to the route its token names.
func (m *Manager) deliverLocal(token uint64, res value.Value, err error) {
	rt, ok := m.routes.TakeDelete(token)
	if !ok {
		return
	}
	m.dispatchRoute(m.node.ID, rt, res, err)
}

// dispatchRoute applies a delivered result (or failure) to a consumed
// route — the one place a value crosses from a finished segment into
// whatever consumes it, shared by local delivery and wire flushes. from
// is the node the value came from (event attribution).
func (m *Manager) dispatchRoute(from int, rt *route, res value.Value, err error) {
	switch rt.kind {
	case routeJob:
		rt.job.complete(res, err)
		m.purgeChainRecovery(rt.job.ID)

	case routeResume:
		rt.job.mu.Lock()
		rt.job.waiting = false
		rt.job.mu.Unlock()
		if err != nil {
			rt.job.complete(value.Value{}, err)
			_ = rt.th.Kill()
			return
		}
		if rt.expectValue {
			rt.th.Top().Push(res)
		}
		if rt.chain != nil {
			m.publishEventSync(rt.chain.origin, JobEvent{
				Job: rt.chain.job, Kind: EvSegmentForwarded,
				From: from, To: m.node.ID,
				Seg: rt.chain.seg, SegOf: rt.chain.segOf,
			})
			m.observeForward(from, rt.chain)
		}
		_ = rt.th.Resume()

	case routePlanted:
		if err != nil {
			m.forwardError(rt.next, rt.fallback, err)
			return
		}
		if rt.expectValue {
			rt.th.Top().Push(res)
		}
		bottomReturns := rt.th.Frames[0].Method.ReturnsValue
		if rt.chain != nil {
			// A chain link becoming live is a first-class citizen of this
			// node: visible to the balancer (it can re-balance onward or be
			// stolen, within its hop budget), its result routed to the next
			// link with the chain's recovery fallback attached.
			m.publishEventSync(rt.chain.origin, JobEvent{
				Job: rt.chain.job, Kind: EvSegmentForwarded,
				From: from, To: m.node.ID,
				Seg: rt.chain.seg, SegOf: rt.chain.segOf,
			})
			m.observeForward(from, rt.chain)
			job := m.adoptChainLink(rt.th, rt.chain, rt.next, rt.fallback, bottomReturns)
			m.registerRemote(job)
			go m.runRemoteJob(rt.th, job)
			return
		}
		go m.runWorker(rt.th, bottomReturns, rt.next, rt.fallback)

	case routeChainRecover:
		if err != nil {
			m.forwardError(rt.next, rt.fallback, err)
			return
		}
		th, rerr := RestoreDirect(m.node, rt.seg)
		if rerr != nil {
			m.forwardError(rt.next, rt.fallback, rerr)
			return
		}
		if rt.expectValue {
			th.Top().Push(res)
		}
		m.publishEventSync(rt.chain.origin, JobEvent{
			Job: rt.chain.job, Kind: EvSegmentForwarded,
			From: from, To: m.node.ID,
			Seg: rt.chain.seg, SegOf: rt.chain.segOf,
		})
		m.observeForward(from, rt.chain)
		bottomReturns := th.Frames[0].Method.ReturnsValue
		job := m.adoptChainLink(th, rt.chain, rt.next, rt.fallback, bottomReturns)
		m.registerRemote(job)
		go m.runRemoteJob(th, job)
	}
}

// observeForward records a chain link's activation — the moment a
// forwarded value reached its planted frames: counter plus a point span
// in the origin's trace.
func (m *Manager) observeForward(from int, meta *chainLinkMeta) {
	m.met.chainForwarded.IncKeyed(meta.job)
	m.emitSpans(meta.origin, obs.Span{
		ID: m.spanID(), Parent: obs.RootSpanID, Job: meta.job,
		Node: m.node.ID, Name: "forward", Start: time.Now(),
		Detail: fmt.Sprintf("segment %d/%d from node %d", meta.seg+1, meta.segOf, from),
	})
}

// adoptChainLink wraps an activated chain link in a remote-flagged Job
// handle carrying the chain's hop metadata, so the link re-balances and
// gets stolen like any migrated-in job and its result flows to the next
// link (with the recovery fallback along for the ride). The link keeps
// the chain's event identity: however far it travels from here, its
// lifecycle events publish into the origin's stream under the job id —
// not to the next link's node under a plant token.
func (m *Manager) adoptChainLink(th *vm.Thread, meta *chainLinkMeta, next, fallback completion, expectValue bool) *Job {
	job := m.newRemoteJob(th, meta.hops, meta.visited, next, fallback, expectValue)
	job.evJob, job.evOrigin = meta.job, meta.origin
	return job
}

// purgeChainRecovery drops the chain recovery routes registered for a
// completed local job: the chain delivered, the retained segments are
// dead weight.
func (m *Manager) purgeChainRecovery(jobID uint64) {
	m.mu.Lock()
	toks := m.chainRecov[jobID]
	delete(m.chainRecov, jobID)
	m.mu.Unlock()
	for _, tok := range toks {
		m.routes.Delete(tok)
	}
}

// forwardError propagates a failure along a completion chain, rerouting
// to the fallback when the primary consumer is unreachable.
func (m *Manager) forwardError(next, fallback completion, err error) {
	if next.node == m.node.ID {
		m.deliverLocal(next.token, value.Value{}, err)
		return
	}
	hasFallback := fallback != completion{}
	attempts := flushRetryAttempts
	if hasFallback {
		attempts = chainFlushAttempts
	}
	efm := &serial.FlushMessage{Err: err.Error()}
	serr := m.sendFlushRetrying(next.node,
		encodeFlushMsg(next.token, efm, m.node.Prog, m.node.Codec), false, attempts)
	if serr != nil && isUnreachable(serr) && hasFallback {
		if fallback.node == m.node.ID {
			m.deliverLocal(fallback.token, value.Value{}, err)
			return
		}
		_ = m.sendFlushRetrying(fallback.node,
			encodeFlushMsg(fallback.token, efm, m.node.Prog, m.node.Codec), false, flushRetryAttempts)
	}
}

// --- SOD migration (the contribution) ---

// WholeStack, as SODOptions.NFrames, exports every frame the thread has
// when it parks. The policy engine uses it: an auto-offloaded job moves in
// full, whatever its depth at the decision instant.
const WholeStack = -1

// SODOptions tunes one SOD migration.
type SODOptions struct {
	// NFrames is the segment size (top frames to export); WholeStack
	// exports the entire stack as measured at suspension time.
	NFrames int
	// Dest executes the segment.
	Dest int
	// Flow selects Fig 1a/b/c.
	Flow Flow
	// ForwardTo hosts the residual under FlowForward.
	ForwardTo int
	// Reason labels the migration in the job's event stream (who
	// initiated it); zero is ReasonManual.
	Reason MigrateReason
}

// migrationInFlight reports whether a capture/transfer is currently
// running for job id.
func (m *Manager) migrationInFlight(id uint64) bool {
	_, ok := m.migInFlight.Get(id)
	return ok
}

// MigrateSOD exports the top segment of the job's thread per opts. The
// thread may be running (it is suspended at its next MSP) or parked.
// Remote (migrated-in) jobs are eligible too: their segment ships with
// the accumulated hop count and the original home node, and their result
// routes straight to the origin — a further hop never lengthens the
// return path.
func (m *Manager) MigrateSOD(job *Job, opts SODOptions) (*MigrationMetrics, error) {
	if opts.Flow == FlowForward {
		// Manual flow-forwarding is a two-link chain: the segment on Dest,
		// the whole residual planted on ForwardTo. One executor serves the
		// hand-driven API and the chain planner — there is no second
		// migration entry point.
		return m.MigrateChain(job, func(frames []policy.FrameSignal) (policy.ChainPlan, error) {
			depth := len(frames)
			k := opts.NFrames
			if k == WholeStack {
				k = depth
			}
			if k <= 0 || k > depth {
				return policy.ChainPlan{}, fmt.Errorf("sodee: segment size %d out of range (depth %d)", opts.NFrames, depth)
			}
			if k == depth {
				return policy.ChainPlan{}, fmt.Errorf("sodee: forward flow needs a residual (depth %d, segment %d)", depth, k)
			}
			return policy.ChainPlan{Segments: []policy.ChainSegment{
				{Frames: k, Dest: opts.Dest, ForwardTo: opts.ForwardTo},
				{Frames: depth - k, Dest: opts.ForwardTo, ForwardTo: m.node.ID},
			}}, nil
		}, opts.Reason)
	}
	// One migration per job at a time: a push decision and a steal grant
	// may race on the same job, and both suspending the thread would wedge
	// it.
	if !m.migInFlight.SetIfAbsent(job.ID, struct{}{}) {
		return nil, fmt.Errorf("sodee: job %d already has a migration in flight", job.ID)
	}
	defer m.migInFlight.Delete(job.ID)

	// migratable, not just th != nil: a parked residual waiting for a
	// forwarded value is owned by its resume route — capturing it would
	// ship the frames while the route still points into the old thread.
	if !job.migratable() {
		return nil, fmt.Errorf("sodee: job has no migratable thread")
	}
	th := job.Thread()
	n := m.node
	if n.Agent == nil {
		return nil, fmt.Errorf("sodee: node %d has no tool interface to capture state", n.ID)
	}
	// A home-grown job's first departure replicates its origin shadow.
	// The call overlaps the suspend and capture below and is joined only
	// where the hop reads the re-homing fallback.
	replicated := m.replicateOnce(job)
	t0 := time.Now()
	parked, err := n.Agent.SuspendAtSafePoint(th)
	if err != nil {
		return nil, err
	}
	if !parked {
		return nil, fmt.Errorf("sodee: thread finished before reaching a safe point")
	}
	depth := th.Depth()
	k := opts.NFrames
	if k == WholeStack {
		k = depth
	}
	if k <= 0 || k > depth {
		_ = th.Resume()
		return nil, fmt.Errorf("sodee: segment size %d out of range (depth %d)", k, depth)
	}

	// Pinned frames must stay home (§IV.D: frames holding sockets).
	for d := 0; d < k; d++ {
		if n.Agent.IsFramePinned(th, d) {
			_ = th.Resume()
			return nil, fmt.Errorf("sodee: frame %d is pinned; cannot migrate", d)
		}
	}

	// A re-migrated job keeps its original home: modified statics flush
	// there and cold classes are fetched from there, however many hops the
	// stack takes.
	home := n.ID
	if ctx, ok := th.UserData.(*threadCtx); ok && ctx.homeNode >= 0 {
		home = ctx.homeNode
	}
	seg, err := CaptureSegment(n.Agent, th, 0, k, home)
	if err != nil {
		_ = th.Resume()
		return nil, err
	}
	var residual *serial.CapturedState
	if opts.Flow == FlowTotal && depth > k {
		residual, err = CaptureSegment(n.Agent, th, k, depth-k, home)
		if err != nil {
			_ = th.Resume()
			return nil, err
		}
	}
	captureDone := time.Now()
	// Hop metadata rides in the captured state: one more hop taken, and
	// this node joins the trace as "just left" (age 0). Visits ship as
	// ages so the cooldown survives clock skew between machines, oldest
	// (largest age) first so the wire-size cap drops the entries farthest
	// outside any cooldown.
	job.mu.Lock()
	seg.Hops = int32(job.hops + 1)
	for node, left := range job.visited {
		seg.Visited = append(seg.Visited, serial.Visit{
			Node: int32(node), AgeNanos: int64(captureDone.Sub(left)),
		})
	}
	job.mu.Unlock()
	sort.Slice(seg.Visited, func(i, j int) bool { return seg.Visited[i].AgeNanos > seg.Visited[j].AgeNanos })
	seg.Visited = append(seg.Visited, serial.Visit{Node: int32(n.ID), AgeNanos: 0})
	// Multi-hop hygiene: captured values must reference masters, not this
	// node's caches, and this node's dirty cached writes must reach their
	// masters before the next hop re-faults the data there. The retry
	// window is short — this runs inside the balancer's tick, and the
	// data flushes again at completion anyway.
	m.homeRefs(seg)
	if residual != nil {
		m.homeRefs(residual)
	}
	if home != n.ID {
		m.flushUpdates(home, preHopFlushAttempts)
	}

	segBottom := n.Prog.Methods[seg.Frames[0].MethodID]

	// finalTo is where the job's eventual result belongs: the local job
	// handle, or — for a migrated-in job — the completion it arrived with
	// (its origin), so results never chain back through intermediate hops.
	// eventTo is where its lifecycle events publish: usually the same,
	// but an activated chain link's result goes to the next link's plant
	// token while its events still belong to the origin's job stream.
	finalTo := completion{node: n.ID, token: job.ID}
	job.mu.Lock()
	if job.remote {
		finalTo = job.resultTo
	}
	eventTo := finalTo
	if job.evJob != 0 {
		eventTo = completion{node: job.evOrigin, token: job.evJob}
	}
	job.mu.Unlock()

	// Decide where the segment's return value goes and arrange the stack.
	// partial marks the one shape whose failure undo differs: the residual
	// stays parked here with a local resume route.
	var resultTo completion
	partial := false
	switch {
	case opts.Flow == FlowReturnHome && depth > k:
		// Keep the residual parked here; register a resume route.
		partial = true
		token := m.newToken()
		if err := n.Agent.TruncateTo(th, depth-k); err != nil {
			_ = th.Resume()
			return nil, err
		}
		m.routes.Set(token, &route{kind: routeResume, job: job, th: th, expectValue: segBottom.ReturnsValue})
		job.mu.Lock()
		job.waiting = true // the parked residual is spoken for by its route
		job.mu.Unlock()
		resultTo = completion{node: n.ID, token: token}

	case opts.Flow == FlowReturnHome: // whole stack exported, result = job result
		job.Detach()
		if err := th.Kill(); err != nil {
			return nil, err
		}
		resultTo = finalTo

	case opts.Flow == FlowTotal:
		// Residual rides along to the destination; final result flows to
		// the job's consumer.
		job.Detach()
		if err := th.Kill(); err != nil {
			return nil, err
		}
		resultTo = finalTo // final consumer; residual runs at dest

	}

	// Ship the segment (classes of its methods ride along, rest on demand).
	// A re-balanced chain link keeps its recovery fallback: wherever the
	// link ends up, an unreachable next link still reroutes to the chain's
	// origin. A home-grown job's re-homing fallback travels the same way:
	// wherever the stack lands, an unreachable (dead) origin redirects the
	// result to the job's successor; joining the replication here is what
	// makes the first hop carry it too. Partial exports carry none — their
	// value returns to the residual parked on this node, not to a consumer
	// that could outlive it.
	if resultTo == finalTo && replicated != nil {
		<-replicated
	}
	var fallback completion
	job.mu.Lock()
	if resultTo == finalTo {
		fallback = job.resultFallback
	}
	jobChained := job.chained
	job.mu.Unlock()
	msg := migrateMsg{
		resultTo:    resultTo,
		fallback:    fallback,
		homeNode:    home,
		seg:         seg,
		residual:    residual, // non-nil only for FlowTotal
		expectValue: segBottom.ReturnsValue,
		classes:     m.bundleClasses(seg, residual),
		// Ownership and identity travel with the stack: a chained job
		// stays planner-owned at its new host, and wherever the stack
		// lands, its lifecycle events keep publishing into the origin's
		// stream under the job's id — never to a resume or plant token.
		chained:     jobChained,
		chainJob:    eventTo.token,
		chainOrigin: eventTo.node,
	}
	// Announce the hop *before* the transfer: a fast destination can run
	// the segment to completion (and flush the result to the origin)
	// before this goroutine is scheduled again, and a migration notice
	// arriving after the terminal event would be dropped. If the transfer
	// fails instead, EvMigrationFailed below tells the watcher the job
	// bounced back.
	m.publishEvent(eventTo.node, JobEvent{
		Job: eventTo.token, Kind: EvMigrated,
		From: n.ID, To: opts.Dest,
		Reason: opts.Reason, Hops: int(seg.Hops),
	})
	sendStart := time.Now()
	reply, wireBytes, classBytes, err := m.sendMigrate(opts.Dest, &msg)
	if err != nil {
		// The destination is unreachable (crashed mid-migration, or never
		// existed). The captured state is still in hand, so fall back to
		// local execution rather than stranding the job: the migration
		// fails, the job does not — this node stays its live owner.
		m.met.migFailures.Inc()
		m.publishEvent(eventTo.node, JobEvent{
			Job: eventTo.token, Kind: EvMigrationFailed,
			From: n.ID, To: opts.Dest,
			Reason: opts.Reason, Hops: int(seg.Hops),
		})
		if rerr := m.recoverLocal(job, th, partial, seg, msg.residual, resultTo); rerr != nil {
			return nil, fmt.Errorf("sodee: migrate to %d: %w; local recovery also failed: %w", opts.Dest, err, rerr)
		}
		return nil, fmt.Errorf("sodee: migrate to %d (job recovered locally): %w", opts.Dest, err)
	}
	arrival, restoreDur, rerr := decodeMigrateReply(reply)
	if rerr != nil {
		return nil, rerr
	}

	// A remote wrapper whose whole stack moved on is finished here: the
	// destination owns the job now and its result flows straight to the
	// origin, so drop the local handle.
	job.mu.Lock()
	dropWrapper := job.remote && job.th == nil
	job.mu.Unlock()
	if dropWrapper {
		m.jobs.Delete(job.ID)
	}

	mm := MigrationMetrics{
		Capture:    captureDone.Sub(t0),
		Transfer:   arrival.Sub(sendStart),
		Restore:    restoreDur,
		StateBytes: wireBytes - classBytes,
		ClassBytes: classBytes,
	}
	mm.Latency = mm.Capture + mm.Transfer + mm.Restore
	m.observeWireLatency(opts.Dest, mm.Transfer)
	m.observeMigration(&mm, opts.Reason, opts.Dest, wireBytes)
	// The hop's span quartet goes to the origin's trace: the migrate span
	// with its capture/transfer/restore children. The source clock times
	// all four — the remote restore duration came back in the migrate
	// reply, with its start approximated as transfer-end (same clock, no
	// cross-machine skew in the timeline).
	migSpan := m.spanID()
	m.emitSpans(eventTo.node,
		obs.Span{ID: migSpan, Parent: obs.RootSpanID, Job: eventTo.token,
			Node: n.ID, Dest: opts.Dest, Name: "migrate", Start: t0,
			Dur: mm.Latency, Bytes: wireBytes, Detail: opts.Reason.String()},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: opts.Dest, Name: "capture", Start: t0, Dur: mm.Capture},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: opts.Dest, Name: "transfer", Start: sendStart,
			Dur: mm.Transfer, Bytes: wireBytes},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: opts.Dest, Name: "restore",
			Start: sendStart.Add(mm.Transfer), Dur: mm.Restore},
	)
	return &mm, nil
}

// recoverLocal undoes a migration whose transfer failed, resuming the
// job on this node from the already-captured state. The shape of the undo
// depends on how far the flow got before the send:
//
//   - ReturnHome with a residual (partial): the thread is still parked
//     here with its top segment truncated away — drop the pending resume
//     route, rebuild the captured frames in place and resume. The job's
//     original watcher goroutine still owns completion.
//   - ReturnHome of the whole stack, and Total: the local thread was
//     killed and the job detached — rebuild the full stack (residual
//     beneath segment for Total) as a fresh thread and re-attach it. A
//     remote wrapper re-attaches to its routing runner, so the recovered
//     result still flows to the job's origin.
//
// (Forward-flow recovery lives in the chain executor, which owns that
// path end to end.)
func (m *Manager) recoverLocal(job *Job, th *vm.Thread, partial bool,
	seg, residual *serial.CapturedState, resultTo completion) error {

	n := m.node
	switch {
	case partial:
		// Partial export: th is parked on the residual frames.
		m.routes.Delete(resultTo.token)
		job.mu.Lock()
		job.waiting = false
		job.mu.Unlock()
		appendCapturedFrames(th, n.Prog, seg.Frames)
		return th.Resume()

	default: // ReturnHome whole-stack, Total
		frames := seg.Frames
		if residual != nil {
			frames = append(append([]serial.CapturedFrame(nil), residual.Frames...), seg.Frames...)
		}
		worker, err := RestoreDirect(n, &serial.CapturedState{Frames: frames, HomeNode: seg.HomeNode})
		if err != nil {
			return err
		}
		job.mu.Lock()
		job.th = worker
		remote := job.remote
		job.mu.Unlock()
		if remote {
			go m.runRemoteJob(worker, job)
		} else {
			go m.runAndWatch(worker, job)
		}
		return nil
	}
}

// bundleClasses encodes the declaring classes of all captured methods —
// the "current class" shipped with the migration message; everything else
// is fetched through the class-load hook on demand.
func (m *Manager) bundleClasses(states ...*serial.CapturedState) [][]byte {
	seen := map[int32]bool{}
	var bundles [][]byte
	for _, cs := range states {
		if cs == nil {
			continue
		}
		for _, f := range cs.Frames {
			cid := m.node.Prog.Methods[f.MethodID].ClassID
			if cid < 0 || seen[cid] {
				continue
			}
			seen[cid] = true
			bundles = append(bundles, serial.EncodeClass(m.node.Prog, cid))
		}
	}
	return bundles
}

// sendMigrate is the single exit point for migration messages:
// MigrateSOD, chain plants, chain top-segment ships and steal-granted
// transfers all encode and transmit here, so delta capture and gossip
// piggybacking apply uniformly. It negotiates the link's capabilities,
// encodes (delta when the peer's cache can be referenced, full
// otherwise), and handles the delta-miss resync: a receiver whose cache
// lost a referenced unit fails the call with a marker error, and the
// migration is resent once, fully self-contained.
//
// Returns the peer's reply, the bytes put on the wire and the on-wire
// size of the classes section.
func (m *Manager) sendMigrate(dest int, msg *migrateMsg) (reply []byte, wireBytes, classBytes int64, err error) {
	n := m.node
	codec := m.codecFor(dest)
	caps := byte(0)
	if codec == serial.Fast {
		// The JavaSer codec models the paper's device interop path; its
		// consumers predate the delta protocol.
		caps = m.peerWireCaps(dest)
	}
	// Gossip piggybacking: a migration message is going out anyway, so a
	// load report rides along for free.
	msg.signals = m.piggybackSignals()

	var sess *deltaSession
	if caps&capDelta != 0 {
		sess = m.beginDelta(dest)
		msg.delta = true
	}
	payload := msg.encode(n.Prog, codec, sess)
	reply, err = n.EP.Call(dest, netsim.KindMigrate, payload)
	if isDeltaMiss(err) {
		// The peer could not resolve a reference: its cache diverged from
		// this node's view (restart, bound-triggered eviction). Drop the
		// link cache and resend this migration fully self-contained; the
		// caches resync from it.
		m.met.deltaMisses.Inc()
		m.dropLink(dest)
		msg.delta, sess = false, nil
		payload = msg.encode(n.Prog, codec, nil)
		reply, err = n.EP.Call(dest, netsim.KindMigrate, payload)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	m.commitDelta(sess)
	if sess != nil {
		if sess.hits > 0 {
			m.met.deltaHits.Add(sess.hits)
		}
		if sess.saved > 0 {
			m.met.deltaSaved.Add(sess.saved)
		}
	}
	m.notePiggyback(dest)
	m.met.gossipPiggyback.Inc()
	return reply, int64(len(payload)), int64(msg.classWire), nil
}

// --- destination side ---

func (m *Manager) handleMigrate(from int, payload []byte) ([]byte, error) {
	arrival := time.Now()
	n := m.node
	msg, err := m.decodeMigrateMsg(from, payload)
	if err != nil {
		return nil, err
	}
	// Absorb the piggybacked load report (and its heartbeat) exactly as a
	// dedicated KindLoadReport would be.
	if len(msg.signals) > 0 {
		if s, caps, ups, serr := decodeSignalsCaps(msg.signals); serr == nil {
			m.absorbSignals(s, caps, ups)
		}
	}

	// Load the classes that rode along, and point the class-load hook at
	// the home node for the rest.
	m.mu.Lock()
	m.classSource = msg.homeNode
	m.mu.Unlock()
	for _, cb := range msg.classes {
		bundle, err := serial.DecodeClass(cb)
		if err != nil {
			return nil, err
		}
		if err := bundle.VerifyAgainst(n.Prog); err != nil {
			return nil, err
		}
		n.VM.MarkLoaded(bundle.Class.ID)
	}

	if msg.plant {
		// Pre-restore the continuation, parked until its value arrives —
		// "having state restored ahead of the passing of control" (§II.B).
		th, err := RestoreDirect(n, msg.seg)
		if err != nil {
			return nil, err
		}
		rt := &route{
			kind: routePlanted, th: th,
			expectValue: msg.expectValue,
			next:        msg.resultTo,
			fallback:    msg.fallback,
		}
		if msg.chainOf > 0 {
			// A chain link: remember who it belongs to and the hop metadata
			// its frames carried, re-based to this node's clock (the same
			// treatment adoptRemote gives an executing stack), so the link
			// runs as a first-class job when control reaches it.
			rt.chain = &chainLinkMeta{
				job: msg.chainJob, origin: msg.chainOrigin,
				seg: msg.chainSeg, segOf: msg.chainOf,
				hops:    int(msg.seg.Hops),
				visited: rebaseVisits(msg.seg.Visited, time.Now()),
			}
		}
		token := m.newToken()
		m.routes.Set(token, rt)
		w := wire.NewWriter(16)
		w.Uvarint(token)
		return w.Bytes(), nil
	}

	// For FlowTotal: pre-restore the residual first and register it as the
	// local consumer of the segment's return value, so the subsequent
	// execution after the segment pops is purely local (Fig 1b).
	dst := msg.resultTo
	dstFallback := msg.fallback
	if msg.residual != nil {
		resTh, rerr := RestoreDirect(n, msg.residual)
		if rerr != nil {
			return nil, rerr
		}
		token := m.newToken()
		m.routes.Set(token, &route{
			kind: routePlanted, th: resTh,
			expectValue: msg.expectValue,
			next:        msg.resultTo,
			fallback:    msg.fallback,
		})
		// The segment's value is consumed locally; the fallback travels
		// with the planted residual's own onward route instead.
		dst = completion{node: n.ID, token: token}
		dstFallback = completion{}
	}

	// Restore and run the segment, adopted as a local (remote-flagged) job
	// so the balancer sees it: a migrated-in stack is not pinned here — it
	// can be re-balanced onward or stolen like any local job, within its
	// hop budget.
	restoreStart := time.Now()
	var restoreDur time.Duration
	if n.Agent == nil {
		th, rerr := RestoreDirect(n, msg.seg)
		if rerr != nil {
			return nil, rerr
		}
		restoreDur = time.Since(restoreStart)
		job := m.adoptRemote(th, msg.seg, dst, dstFallback, msg.expectValue)
		job.chained, job.evJob, job.evOrigin = msg.chained, msg.chainJob, msg.chainOrigin
		m.registerRemote(job)
		go m.runRemoteJob(th, job)
	} else {
		th, rc, berr := RestoreByBreakpoints(n, msg.seg)
		if berr != nil {
			return nil, berr
		}
		job := m.adoptRemote(th, msg.seg, dst, dstFallback, msg.expectValue)
		job.chained, job.evJob, job.evOrigin = msg.chained, msg.chainJob, msg.chainOrigin
		go m.runRemoteJob(th, job)
		if restoreDur, err = rc.Wait(restoreStart); err != nil {
			return nil, err
		}
		// Only now does the job become migratable again — a capture
		// during restoration would ship half a stack.
		m.registerRemote(job)
	}

	w := wire.NewWriter(24)
	w.Fixed64(uint64(arrival.UnixNano()))
	w.Uvarint(uint64(restoreDur))
	return w.Bytes(), nil
}

func (m *Manager) handleFlush(from int, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	codec := serial.Codec(r.Byte())
	token := r.Uvarint()
	body := r.BlobView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	fm, err := serial.DecodeFlush(body, m.node.Prog, codec)
	if err != nil {
		return nil, err
	}
	m.deliverFlush(from, token, fm)
	return nil, nil
}

// deliverFlush applies a flush message (sent by node from) to the route
// its token names. The token travels alongside the message — never through
// FlushMessage.ThreadID, whose int32 would truncate the node-id prefix of
// a cluster-unique token. Token 0 is an apply-only update flush (dirty
// data coming home) with no control transfer attached.
func (m *Manager) deliverFlush(from int, token uint64, fm *serial.FlushMessage) {
	if token == 0 {
		if _, err := m.node.ObjMan.ApplyFlush(fm); err != nil {
			_ = err
		}
		return
	}
	rt, ok := m.routes.TakeDelete(token)
	if !ok {
		return
	}
	if rt.kind == routeJob {
		// The job's final result just crossed the wire home; record it in
		// the event stream before the completion event fires.
		m.bus.Publish(JobEvent{
			Job: token, Kind: EvResultFlushed,
			From: from, To: m.node.ID,
		})
	}
	res, err := m.node.ObjMan.ApplyFlush(fm)
	if fm.Err != "" {
		err = fmt.Errorf("sodee: remote segment failed: %s", fm.Err)
	}
	m.dispatchRoute(from, rt, res, err)
}

// --- class shipping ---

func (m *Manager) classLoadHook(v *vm.VM, classID int32) error {
	m.mu.Lock()
	src := m.classSource
	m.mu.Unlock()
	if src < 0 || src == m.node.ID {
		return nil // nothing to fetch from; treat as locally available
	}
	w := wire.NewWriter(8)
	w.Varint(int64(classID))
	reply, err := m.node.EP.Call(src, netsim.KindClassRequest, w.Bytes())
	if err != nil {
		return err
	}
	bundle, err := serial.DecodeClass(reply)
	if err != nil {
		return err
	}
	if err := bundle.VerifyAgainst(m.node.Prog); err != nil {
		return err
	}
	m.mu.Lock()
	m.classBytes += int64(len(reply))
	m.mu.Unlock()
	return nil
}

func (m *Manager) handleClassRequest(from int, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	cid := int32(r.Varint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if cid < 0 || int(cid) >= len(m.node.Prog.Classes) {
		return nil, fmt.Errorf("sodee: bad class id %d", cid)
	}
	return serial.EncodeClass(m.node.Prog, cid), nil
}

// --- wire helpers ---

type migrateMsg struct {
	plant       bool
	codec       serial.Codec
	resultTo    completion
	fallback    completion // where the result goes if resultTo is unreachable
	homeNode    int
	seg         *serial.CapturedState
	residual    *serial.CapturedState
	expectValue bool
	classes     [][]byte
	// Chain identity (chainJob == 0 means none): the job the shipped
	// state belongs to and its origin node — the destination's event
	// publications need them whenever they differ from resultTo (planted
	// links, and chain fragments re-balanced onward). For plants,
	// chainSeg/chainOf add the link's position in its plan.
	chainJob    uint64
	chainOrigin int
	chainSeg    int
	chainOf     int
	// chained marks a chain-owned job (Client.SubmitChain) so planner
	// ownership survives whole-stack migrations to a new host.
	chained bool
	// delta marks the captured states (and class bundles) as
	// delta-encoded against the (src,dst) link cache. It is only set when
	// the peer advertised capDelta (see deltacache.go); otherwise the
	// message is the self-contained full-state form.
	delta bool
	// signals is an optional piggybacked load report (gossip riding the
	// migration; empty = none).
	signals []byte
	// classWire is set by encode: the on-wire size of the classes section,
	// which differs from the raw bundle sizes when delta references
	// replace them.
	classWire int
}

// encode serializes the control message. When sess is non-nil the
// captured states and class bundles are delta-encoded: units unchanged
// since the last transfer on this link ship as 9-byte cache references.
func (mm *migrateMsg) encode(prog *bytecode.Program, codec serial.Codec, sess *deltaSession) []byte {
	mm.codec = codec
	w := wire.NewWriter(512)
	w.Byte(byte(codec))
	w.Bool(mm.plant)
	w.Varint(int64(mm.resultTo.node))
	w.Uvarint(mm.resultTo.token)
	w.Varint(int64(mm.fallback.node))
	w.Uvarint(mm.fallback.token)
	w.Varint(int64(mm.homeNode))
	w.Bool(mm.expectValue)
	w.Uvarint(mm.chainJob)
	w.Varint(int64(mm.chainOrigin))
	w.Varint(int64(mm.chainSeg))
	w.Varint(int64(mm.chainOf))
	w.Bool(mm.chained)
	w.Bool(mm.delta)
	w.Blob(mm.signals)
	encState := func(cs *serial.CapturedState) {
		if mm.delta {
			sub := wire.NewWriter(256)
			encodeDeltaState(sub, cs, sess.m, sess, codec)
			w.Blob(sub.Bytes())
			return
		}
		w.Blob(serial.EncodeCapturedState(cs, prog, codec))
	}
	encState(mm.seg)
	if mm.residual != nil {
		w.Bool(true)
		encState(mm.residual)
	} else {
		w.Bool(false)
	}
	classStart := w.Len()
	w.Uvarint(uint64(len(mm.classes)))
	for _, cb := range mm.classes {
		if mm.delta {
			sess.writeUnit(w, cb)
		} else {
			w.Blob(cb)
		}
	}
	mm.classWire = w.Len() - classStart
	return w.Bytes()
}

// decodeMigrateMsg parses a control message from peer `from`; delta
// references resolve against this manager's link cache for that peer.
func (m *Manager) decodeMigrateMsg(from int, payload []byte) (*migrateMsg, error) {
	prog := m.node.Prog
	r := wire.NewReader(payload)
	mm := &migrateMsg{}
	mm.codec = serial.Codec(r.Byte())
	codec := mm.codec
	mm.plant = r.Bool()
	mm.resultTo.node = int(r.Varint())
	mm.resultTo.token = r.Uvarint()
	mm.fallback.node = int(r.Varint())
	mm.fallback.token = r.Uvarint()
	mm.homeNode = int(r.Varint())
	mm.expectValue = r.Bool()
	mm.chainJob = r.Uvarint()
	mm.chainOrigin = int(r.Varint())
	mm.chainSeg = int(r.Varint())
	mm.chainOf = int(r.Varint())
	mm.chained = r.Bool()
	mm.delta = r.Bool()
	mm.signals = r.Blob()
	decState := func(buf []byte) (*serial.CapturedState, error) {
		if mm.delta {
			return m.decodeDeltaState(buf, from, codec)
		}
		return serial.DecodeCapturedState(buf, prog, codec)
	}
	segBuf := r.BlobView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	seg, err := decState(segBuf)
	if err != nil {
		return nil, err
	}
	mm.seg = seg
	if r.Bool() {
		resBuf := r.BlobView()
		if err := r.Err(); err != nil {
			return nil, err
		}
		mm.residual, err = decState(resBuf)
		if err != nil {
			return nil, err
		}
	}
	for i, nc := 0, int(r.Uvarint()); i < nc && r.Err() == nil; i++ {
		if mm.delta {
			cb, uerr := m.readDeltaUnit(r, from)
			if uerr != nil {
				return nil, uerr
			}
			mm.classes = append(mm.classes, cb)
		} else {
			mm.classes = append(mm.classes, r.Blob())
		}
	}
	return mm, r.Err()
}

func decodeMigrateReply(reply []byte) (arrival time.Time, restore time.Duration, err error) {
	r := wire.NewReader(reply)
	at := int64(r.Fixed64())
	rd := time.Duration(r.Uvarint())
	if e := r.Err(); e != nil {
		return time.Time{}, 0, e
	}
	return time.Unix(0, at), rd, nil
}

func encodeFlushMsg(token uint64, fm *serial.FlushMessage, prog *bytecode.Program, codec serial.Codec) []byte {
	w := wire.NewWriter(256)
	w.Byte(byte(codec)) // sender's codec; the receiver decodes accordingly
	w.Uvarint(token)
	w.Blob(serial.EncodeFlush(fm, prog, codec))
	return w.Bytes()
}
