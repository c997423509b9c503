package sodee

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Job lifecycle events: the client-visible trace of what the runtime does
// to a job — where it started, every migration it took (and why), its
// result coming home, and its completion. Events are published into the
// *origin* node's Bus, keyed by the job id Submit returned there, so one
// subscription sees the whole life of a job however many hops it takes:
// a node acting on a migrated-in job forwards the event to the origin
// over KindJobEvent (one-way, best effort — an event is telemetry, never
// load-bearing state).

// EventKind discriminates job lifecycle events.
type EventKind uint8

const (
	// EvStarted: the job's thread began executing at its origin node.
	EvStarted EventKind = 1 + iota
	// EvMigrated: the job's stack moved From → To (Reason says who
	// initiated it; Hops is the job's lifetime migration count after the
	// move).
	EvMigrated
	// EvResultFlushed: the job's final result arrived at its origin over
	// the wire from the node that finished executing it.
	EvResultFlushed
	// EvCompleted: the job finished; Result/Err carry the outcome. Always
	// the final event of a stream.
	EvCompleted
	// EvMigrationFailed: a migration's transfer failed after EvMigrated
	// was announced (the destination crashed mid-flight) and the job was
	// recovered on the source node — the crash-fallback path, visible.
	EvMigrationFailed
	// EvSegmentPlanted: a chain plan placed one residual segment ahead of
	// execution — the link's frames are restored and parked on node To,
	// waiting for the value of the segment above. Seg/SegOf give the
	// link's position in the plan (0 = the executing top segment).
	EvSegmentPlanted
	// EvSegmentForwarded: control reached a planted link — the value of
	// the segment above arrived from node From and the link's frames
	// resumed on node To. A link whose planted node died recovers on the
	// chain's origin; the event's To then names the origin.
	EvSegmentForwarded
	// EvLagged is a synthetic per-subscription marker, never stored in a
	// job's history: the subscriber fell behind and Result events were
	// coalesced away since its previous delivery. It makes event loss
	// visible instead of silent — terminal events are never dropped while
	// a subscription lives, so a consumer that counts completions stays
	// exact even across lag.
	EvLagged
)

func (k EventKind) String() string {
	switch k {
	case EvStarted:
		return "started"
	case EvMigrated:
		return "migrated"
	case EvResultFlushed:
		return "result-flushed"
	case EvCompleted:
		return "completed"
	case EvMigrationFailed:
		return "migration-failed"
	case EvSegmentPlanted:
		return "segment-planted"
	case EvSegmentForwarded:
		return "segment-forwarded"
	case EvLagged:
		return "lagged"
	}
	return "unknown"
}

// MigrateReason says which side of the elasticity engine moved a job.
type MigrateReason uint8

const (
	// ReasonManual: an explicit MigrateSOD call (the hand-driven API).
	ReasonManual MigrateReason = iota
	// ReasonPushed: the balancer shed a home-grown job.
	ReasonPushed
	// ReasonStolen: an idle peer pulled the job via the steal protocol.
	ReasonStolen
	// ReasonRebalanced: the balancer moved a migrated-in job onward.
	ReasonRebalanced
	// ReasonChained: the chain planner split the job's stack into a
	// multi-segment FlowForward pipeline.
	ReasonChained
)

func (r MigrateReason) String() string {
	switch r {
	case ReasonPushed:
		return "pushed"
	case ReasonStolen:
		return "stolen"
	case ReasonRebalanced:
		return "rebalanced"
	case ReasonChained:
		return "chained"
	}
	return "manual"
}

// JobEvent is one entry of a job's lifecycle stream.
type JobEvent struct {
	// Job is the id Submit returned at the job's origin node.
	Job uint64
	// Origin is the node the job was submitted to — the bus its stream
	// lives on. Job ids are only unique per origin, so cluster-wide
	// consumers (WatchAll, sodctl top) key streams by (Origin, Job).
	Origin int
	// Seq orders events within one bus (assigned at publish).
	Seq uint64
	// Time is when the event happened, on the clock of the node where it
	// happened.
	Time time.Time
	// Kind discriminates the event; the remaining fields are per kind.
	Kind EventKind
	// From and To are the nodes involved: source → destination for
	// EvMigrated and EvResultFlushed, the hosting node (From == To) for
	// EvStarted and EvCompleted.
	From, To int
	// Reason and Hops describe an EvMigrated move.
	Reason MigrateReason
	Hops   int
	// Seg and SegOf locate a chain link within its plan: segment Seg of
	// SegOf, counted from the top of the stack (0 = the segment that
	// executes first). SegOf is zero for non-chain events.
	Seg   int
	SegOf int
	// Result (integer results only) and Err carry an EvCompleted outcome.
	// For EvLagged, Result is the number of coalesced-away events.
	Result int64
	Err    string
}

// Terminal reports whether the event ends its job's stream.
func (e JobEvent) Terminal() bool { return e.Kind == EvCompleted }

// String renders the event as the one-line narration sodctl and the
// examples print — one formatter so every surface tells the same story.
func (e JobEvent) String() string {
	switch e.Kind {
	case EvStarted:
		return fmt.Sprintf("job %d started on node %d", e.Job, e.From)
	case EvMigrated:
		if e.SegOf > 0 {
			return fmt.Sprintf("job %d migrated node %d → node %d (%s, hop %d, segment %d/%d)",
				e.Job, e.From, e.To, e.Reason, e.Hops, e.Seg+1, e.SegOf)
		}
		return fmt.Sprintf("job %d migrated node %d → node %d (%s, hop %d)",
			e.Job, e.From, e.To, e.Reason, e.Hops)
	case EvSegmentPlanted:
		return fmt.Sprintf("job %d segment %d/%d planted on node %d (chain from node %d)",
			e.Job, e.Seg+1, e.SegOf, e.To, e.From)
	case EvSegmentForwarded:
		return fmt.Sprintf("job %d segment %d/%d resumed on node %d (value forwarded from node %d)",
			e.Job, e.Seg+1, e.SegOf, e.To, e.From)
	case EvResultFlushed:
		return fmt.Sprintf("job %d result flushed node %d → node %d", e.Job, e.From, e.To)
	case EvMigrationFailed:
		return fmt.Sprintf("job %d migration to node %d failed; recovered on node %d",
			e.Job, e.To, e.From)
	case EvCompleted:
		if e.Err != "" {
			return fmt.Sprintf("job %d failed: %s", e.Job, e.Err)
		}
		return fmt.Sprintf("job %d completed: %d", e.Job, e.Result)
	case EvLagged:
		// A per-job subscription's marker names its job; a firehose
		// (WatchAll) marker has no single job to blame.
		if e.Job != 0 {
			return fmt.Sprintf("job %d watcher lagged: %d events dropped (coalesced)", e.Job, e.Result)
		}
		return fmt.Sprintf("watcher lagged: %d events dropped (coalesced)", e.Result)
	}
	return fmt.Sprintf("job %d: %s", e.Job, e.Kind)
}

// EncodeJobEvent serializes an event for the wire (node-to-origin
// forwarding and the daemon's control-plane streaming share the format).
func EncodeJobEvent(e JobEvent) []byte {
	w := wire.NewWriter(64)
	writeJobEvent(w, e)
	return w.Bytes()
}

func writeJobEvent(w *wire.Writer, e JobEvent) {
	w.Uvarint(e.Job)
	w.Varint(int64(e.Origin))
	w.Uvarint(e.Seq)
	w.Fixed64(uint64(e.Time.UnixNano()))
	w.Byte(byte(e.Kind))
	w.Varint(int64(e.From))
	w.Varint(int64(e.To))
	w.Byte(byte(e.Reason))
	w.Varint(int64(e.Hops))
	w.Varint(int64(e.Seg))
	w.Varint(int64(e.SegOf))
	w.Varint(e.Result)
	w.Blob([]byte(e.Err))
}

// DecodeJobEvent parses a wire-format event. The Seq survives for
// display consumers (sodctl); a bus republishing a forwarded event
// assigns its own publish order regardless.
func DecodeJobEvent(payload []byte) (JobEvent, error) {
	r := wire.NewReader(payload)
	e := readJobEvent(r)
	return e, r.Err()
}

func readJobEvent(r *wire.Reader) JobEvent {
	e := JobEvent{
		Job:    r.Uvarint(),
		Origin: int(r.Varint()),
		Seq:    r.Uvarint(),
		Time:   time.Unix(0, int64(r.Fixed64())),
		Kind:   EventKind(r.Byte()),
		From:   int(r.Varint()),
		To:     int(r.Varint()),
		Reason: MigrateReason(r.Byte()),
		Hops:   int(r.Varint()),
		Seg:    int(r.Varint()),
		SegOf:  int(r.Varint()),
		Result: r.Varint(),
	}
	e.Err = string(r.Blob())
	return e
}

// Bus bounds: how many events one job may accumulate (a job's stream is
// naturally short — start, a hop-budget's worth of migrations, flush,
// completion — so the cap only guards against pathological loops). How
// many jobs' histories stay replayable is RetainedJobs, the same bound
// the manager's finished-job FIFO keeps, so Watch and Wait forget a job
// at about the same point.
const (
	maxEventsPerJob = 64
	// evictSlack is the headroom above RetainedJobs before an eviction
	// pass runs. A pass scans the whole first-seen order, so running one
	// per new job once the bound is full would cost O(RetainedJobs) per
	// publish; letting a quarter more accumulate first makes it amortised
	// O(1).
	evictSlack = RetainedJobs / 4
	// maxPinnedJobs is the hard ceiling on retained histories. Retention
	// pressure above RetainedJobs discards *ended* streams only — a job
	// still running must stay Known, or a submit-heavy burst (more than
	// RetainedJobs jobs in flight at one node) would evict live jobs
	// before their watchers attach. Live streams are pinned until the
	// total crosses this ceiling, where memory safety wins and the oldest
	// go regardless.
	maxPinnedJobs = 8 * RetainedJobs
	// jobRingCap bounds a per-job subscriber's pending ring. It must
	// exceed maxEventsPerJob so a history replay always fits.
	jobRingCap = 2 * maxEventsPerJob
	// fanRingCap bounds a firehose (SubscribeAll / WatchAll) subscriber's
	// pending ring. Overflow coalesces non-terminal events (announced with
	// EvLagged markers); a subscriber so far behind that even job
	// *outcomes* would be lost is evicted instead — its channel closes
	// without a clean end, telling the consumer to resync.
	fanRingCap = 512
	// subOutBuffer is the delivery channel's buffer: small, because the
	// pending ring is what actually absorbs bursts.
	subOutBuffer = 32
)

// busSub is one subscription's delivery machinery: publishers append to a
// bounded pending ring (never blocking, coalescing on overflow) and a
// dedicated pump goroutine drains the ring into the consumer-facing
// channel. The bus therefore never stalls on a slow consumer, and a
// wedged consumer costs one parked goroutine plus one ring — reclaimed on
// cancel, terminal, or eviction.
type busSub struct {
	out  chan JobEvent
	wake chan struct{} // cap 1: "ring state changed"
	quit chan struct{} // closed on cancel/eviction: pump exits now

	// template stamps synthetic EvLagged markers with the subscription's
	// identity (job + origin for per-job subs, origin only for firehoses).
	template JobEvent
	// endOnTerminal: a per-job stream ends at its job's terminal event; a
	// firehose never ends on its own.
	endOnTerminal bool
	// evictable: firehose subs may be evicted when even terminal events
	// would be lost; per-job subs instead always preserve the terminal.
	evictable bool

	// obsCoalesced/obsEvicted, when set (by the owning Bus before the
	// subscription is published to), feed the node's metrics registry.
	obsCoalesced *obs.Counter
	obsEvicted   *obs.Counter

	mu      sync.Mutex
	ring    []JobEvent
	cap     int
	lagged  uint64 // coalesced since the last emitted marker
	dropped uint64 // lifetime coalesced count (stats)
	done    bool   // no further enqueues; pump drains, then closes out
	stopped bool   // quit has been closed
}

func newBusSub(capacity int, template JobEvent, endOnTerminal, evictable bool) *busSub {
	s := &busSub{
		out:           make(chan JobEvent, subOutBuffer),
		wake:          make(chan struct{}, 1),
		quit:          make(chan struct{}),
		template:      template,
		endOnTerminal: endOnTerminal,
		evictable:     evictable,
		cap:           capacity,
	}
	go s.pump()
	return s
}

func (s *busSub) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue appends an event to the pending ring without ever blocking.
// On overflow the oldest non-terminal event is coalesced away (counted,
// announced later as an EvLagged marker). It reports whether the
// subscription is still live; false means the caller should drop it
// (closed, ended, or just evicted).
func (s *busSub) enqueue(e JobEvent) bool {
	s.mu.Lock()
	if s.done || s.stopped {
		s.mu.Unlock()
		return false
	}
	if len(s.ring) >= s.cap {
		drop := -1
		for i := range s.ring {
			if !s.ring[i].Terminal() {
				drop = i
				break
			}
		}
		switch {
		case drop >= 0:
			s.ring = append(s.ring[:drop], s.ring[drop+1:]...)
			s.lagged++
			s.dropped++
			if s.obsCoalesced != nil {
				s.obsCoalesced.Inc()
			}
		case s.evictable:
			// The ring holds nothing but job outcomes and the consumer
			// still is not draining: dropping any of them would silently
			// lose a completion. Evict — the closed channel is the signal.
			s.stopped = true
			close(s.quit)
			if s.obsEvicted != nil {
				s.obsEvicted.Inc()
			}
			s.mu.Unlock()
			return false
		case !e.Terminal():
			// Per-job sub, ring full: shed the incoming event instead.
			s.lagged++
			s.dropped++
			if s.obsCoalesced != nil {
				s.obsCoalesced.Inc()
			}
			s.mu.Unlock()
			s.signal()
			return true
		default:
			s.ring = s.ring[1:]
			s.lagged++
			s.dropped++
			if s.obsCoalesced != nil {
				s.obsCoalesced.Inc()
			}
		}
	}
	s.ring = append(s.ring, e)
	if e.Terminal() && s.endOnTerminal {
		s.done = true
	}
	live := !s.done
	s.mu.Unlock()
	s.signal()
	return live
}

// stop ends the subscription immediately (cancel / eviction); pending
// events are discarded and the consumer channel closes. Idempotent.
func (s *busSub) stop() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.quit)
	}
	s.mu.Unlock()
}

// noteLag records n events this subscription is known to have missed, so
// the pump emits one EvLagged marker before its next delivery. Used when a
// re-homed stream is promoted: the origin's earlier events are lost with
// the origin, and the marker makes that visible instead of silent.
func (s *busSub) noteLag(n uint64) {
	s.mu.Lock()
	s.lagged += n
	s.dropped += n
	s.mu.Unlock()
}

// Dropped returns how many events this subscription coalesced away.
func (s *busSub) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// pump is the subscription's delivery goroutine: drain the ring into the
// consumer channel, emitting an EvLagged marker before the next real
// event whenever coalescing happened since the last delivery.
func (s *busSub) pump() {
	defer close(s.out)
	for {
		var ev JobEvent
		have := false
		s.mu.Lock()
		switch {
		case s.lagged > 0 && len(s.ring) > 0:
			ev = s.template
			ev.Kind = EvLagged
			ev.Result = int64(s.lagged)
			ev.Time = time.Now()
			s.lagged = 0
			have = true
		case len(s.ring) > 0:
			ev = s.ring[0]
			s.ring = s.ring[1:]
			have = true
		case s.done:
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		if !have {
			select {
			case <-s.wake:
				continue
			case <-s.quit:
				return
			}
		}
		select {
		case s.out <- ev:
		case <-s.quit:
			return
		}
	}
}

// Bus is one node's job-event hub: publish appends to the per-job history
// and fans out to live subscribers; subscribing replays the history first
// so a watcher attached after submission still sees the whole stream.
// Publishing never blocks on a consumer: each subscription buffers behind
// a bounded ring drained by its own pump goroutine, and overflow
// coalesces rather than stalls (see busSub).
type Bus struct {
	origin int

	// Optional registry hooks (SetObs): published events, events
	// coalesced away by slow subscribers, firehose subscribers evicted.
	obsPublished *obs.Counter
	obsCoalesced *obs.Counter
	obsEvicted   *obs.Counter

	mu  sync.Mutex
	seq uint64
	// hist holds the events of streams still running; ended holds each
	// finished stream's history packed back to back in the wire encoding.
	// A packed event costs about 30 bytes instead of a JobEvent's 136, so
	// RetainedJobs ended histories stay cheap; a replay decodes them.
	hist  map[uint64][]JobEvent
	ended map[uint64][]byte
	// order is the first-seen order of jobs in hist and ended, for eviction;
	// evictAt is the order length that triggers the next eviction pass.
	order   []uint64
	evictAt int
	subs    map[uint64]map[*busSub]struct{}
	// all holds the firehose subscriptions (SubscribeAll): every event
	// published here, whatever its job.
	all map[*busSub]struct{}
	// shadows holds jobs replicated to this node for origin re-homing:
	// Known before any event exists, with subscribers parked until the
	// stream is promoted by its first real event (the redirected result
	// arriving) or discharged by the origin's normal completion. Shadow
	// state never touches hist or the firehose, so a job that completes at
	// its origin leaves no duplicate trace here.
	shadows map[uint64]map[*busSub]struct{}
}

// NewBus returns an empty bus publishing for the given origin node; every
// published event is stamped with it (job ids are only unique per
// origin, so cluster-wide consumers key streams by Origin+Job).
func NewBus(origin int) *Bus {
	return &Bus{
		origin:  origin,
		evictAt: RetainedJobs + evictSlack,
		hist:    make(map[uint64][]JobEvent),
		ended:   make(map[uint64][]byte),
		subs:    make(map[uint64]map[*busSub]struct{}),
		all:     make(map[*busSub]struct{}),
		shadows: make(map[uint64]map[*busSub]struct{}),
	}
}

// SetObs points the bus at its node's registry counters (published /
// coalesced / evicted). Call before the bus is shared across goroutines
// — the manager does it at construction; a bus without counters works
// uncounted.
func (b *Bus) SetObs(published, coalesced, evicted *obs.Counter) {
	b.obsPublished = published
	b.obsCoalesced = coalesced
	b.obsEvicted = evicted
}

// Publish appends e to its job's history and delivers it to subscribers.
// A terminal event closes every per-job subscription on the job; events
// arriving after the terminal one (a late-forwarded migration notice)
// are dropped. Publish never blocks on a slow consumer.
func (b *Bus) Publish(e JobEvent) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if b.obsPublished != nil {
		b.obsPublished.IncKeyed(e.Job)
	}
	e.Origin = b.origin
	b.mu.Lock()
	if _, done := b.ended[e.Job]; done {
		b.mu.Unlock()
		return
	}
	h, known := b.hist[e.Job]
	b.seq++
	e.Seq = b.seq
	if !known {
		b.trackLocked(e.Job)
	}
	switch {
	case e.Terminal():
		b.endLocked(e.Job, append(h, e))
	case len(h) < maxEventsPerJob:
		b.hist[e.Job] = append(h, e)
	}
	// First real event for a re-homed job: promote its shadow. Parked
	// subscribers join the live set with one EvLagged marker — the
	// origin's earlier events died with the origin — and then receive
	// this event and everything after it, terminal included.
	if sh, ok := b.shadows[e.Job]; ok {
		delete(b.shadows, e.Job)
		set := b.subs[e.Job]
		if set == nil {
			set = make(map[*busSub]struct{})
			b.subs[e.Job] = set
		}
		for s := range sh {
			s.noteLag(1)
			set[s] = struct{}{}
		}
	}
	for s := range b.subs[e.Job] {
		if !s.enqueue(e) && !e.Terminal() {
			// Dead subscription discovered mid-publish: forget it.
			delete(b.subs[e.Job], s)
		}
	}
	if e.Terminal() {
		delete(b.subs, e.Job)
	}
	for s := range b.all {
		if !s.enqueue(e) {
			delete(b.all, s)
		}
	}
	b.mu.Unlock()
}

// endLocked retires a stream's complete history, terminal last, from the
// live table to the packed one. Callers hold b.mu.
func (b *Bus) endLocked(job uint64, h []JobEvent) {
	w := wire.NewWriter(32 * len(h))
	for _, e := range h {
		writeJobEvent(w, e)
	}
	b.ended[job] = append([]byte(nil), w.Bytes()...) // exact size: retained for long
	delete(b.hist, job)
}

// trackLocked appends a newly seen job to the eviction order, running an
// eviction pass once the order has outgrown its slack. Callers hold b.mu.
func (b *Bus) trackLocked(job uint64) {
	b.order = append(b.order, job)
	if len(b.order) > b.evictAt {
		b.evictLocked()
		// The next pass waits for another evictSlack arrivals, even when
		// pinned live streams kept this one from reaching the bound.
		b.evictAt = max(len(b.order), RetainedJobs) + evictSlack
	}
}

// evictLocked sheds retained histories down to RetainedJobs, oldest
// first, skipping streams that have not ended — a live job must stay
// replayable (and Known) however many younger jobs pile in behind it.
// Only past maxPinnedJobs are live streams evicted too. Callers hold b.mu.
func (b *Bus) evictLocked() {
	need := len(b.order) - RetainedJobs
	kept := b.order[:0]
	for i, id := range b.order {
		_, ended := b.ended[id]
		if need > 0 && (ended || len(b.order)-i > maxPinnedJobs) {
			delete(b.ended, id)
			delete(b.hist, id)
			need--
			continue
		}
		kept = append(kept, id)
	}
	b.order = kept
}

// Known reports whether the bus has seen any event for the job (i.e., the
// job was submitted at this node and its history is still retained) or
// holds its re-homing shadow (the job was submitted elsewhere and this
// node is its designated successor).
func (b *Bus) Known(job uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.knownLocked(job)
}

func (b *Bus) knownLocked(job uint64) bool {
	_, live := b.hist[job]
	_, ended := b.ended[job]
	_, shadowed := b.shadows[job]
	return live || ended || shadowed
}

// RegisterShadow marks job as re-homed here: Known starts answering true
// and subscribers park on the shadow until the stream is promoted (first
// real event published — the redirected result arriving) or discharged
// (the origin completed the job normally). Idempotent.
func (b *Bus) RegisterShadow(job uint64) {
	b.mu.Lock()
	if _, ok := b.shadows[job]; !ok {
		b.shadows[job] = make(map[*busSub]struct{})
	}
	b.mu.Unlock()
}

// DischargeShadow retires job's shadow after the origin completed it
// normally: parked subscribers receive one EvLagged marker (the stream
// they never saw lived at the origin) followed by the terminal event, and
// their channels close. The terminal is retained as the job's entire
// local history, so a watcher attaching after the discharge replays it
// and ends instead of parking on a stream nothing will ever promote —
// and Known keeps answering true, like any other completed job here.
// Nothing reaches the firehose (SubscribeAll replays no history), so
// WatchAll consumers never see a duplicate terminal: the job's real
// stream lived at the origin's bus.
func (b *Bus) DischargeShadow(job uint64, terminal JobEvent) {
	if terminal.Time.IsZero() {
		terminal.Time = time.Now()
	}
	terminal.Origin = b.origin
	b.mu.Lock()
	sh, ok := b.shadows[job]
	delete(b.shadows, job)
	if !ok {
		b.mu.Unlock()
		return
	}
	b.seq++
	terminal.Seq = b.seq
	h, known := b.hist[job]
	if !known {
		b.trackLocked(job)
	}
	b.endLocked(job, append(h, terminal))
	b.mu.Unlock()
	for s := range sh {
		s.noteLag(1)
		s.enqueue(terminal)
	}
}

// Subscribe returns a channel of the job's events: the retained history
// replayed first, then live events. The channel is closed after the
// terminal event, or when cancel is called. cancel is idempotent and safe
// after close. A subscriber that stops draining never stalls the bus:
// its non-terminal events are coalesced away (announced in-stream with an
// EvLagged marker) while the terminal event is always preserved, so a
// slow watcher still learns its job's outcome.
//
// The bool is false, and nothing is subscribed, for a job the bus does
// not know (see Known). The check and the subscription share one lock: a
// history evicted between a separate Known and Subscribe would otherwise
// leave a stream that never ends.
func (b *Bus) Subscribe(job uint64) (<-chan JobEvent, func(), bool) {
	b.mu.Lock()
	if !b.knownLocked(job) {
		b.mu.Unlock()
		return nil, nil, false
	}
	s := newBusSub(jobRingCap, JobEvent{Job: job, Origin: b.origin}, true, false)
	s.obsCoalesced, s.obsEvicted = b.obsCoalesced, b.obsEvicted
	// Replays cannot overflow: the ring's cap exceeds maxEventsPerJob.
	h := b.hist[job]
	for _, e := range h {
		s.enqueue(e)
	}
	packed, ended := b.ended[job]
	for r := wire.NewReader(packed); r.Remaining() > 0 && r.Err() == nil; {
		s.enqueue(readJobEvent(r))
	}
	switch {
	case ended:
	case len(h) == 0 && b.shadows[job] != nil:
		// Re-homed job with no local stream yet: park on the shadow. The
		// subscriber resumes (with one EvLagged marker) when the stream is
		// promoted or discharged.
		b.shadows[job][s] = struct{}{}
	default:
		set := b.subs[job]
		if set == nil {
			set = make(map[*busSub]struct{})
			b.subs[job] = set
		}
		set[s] = struct{}{}
	}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if set := b.subs[job]; set != nil {
			delete(set, s)
			if len(set) == 0 {
				delete(b.subs, job)
			}
		}
		if sh := b.shadows[job]; sh != nil {
			delete(sh, s)
		}
		b.mu.Unlock()
		s.stop()
	}
	return s.out, cancel, true
}

// SubscribeAll returns a firehose of every event published to this bus
// from now on (no history replay), whatever its job — the feed behind
// cluster-wide WatchAll. The stream never ends on its own; cancel closes
// it. Backpressure contract: a slow consumer's non-terminal events are
// coalesced (EvLagged markers announce the count), terminal events are
// never silently dropped — a consumer too slow to keep even terminal
// events is evicted, observed as the channel closing without cancel.
func (b *Bus) SubscribeAll() (<-chan JobEvent, func()) {
	s := newBusSub(fanRingCap, JobEvent{Origin: b.origin}, false, true)
	s.obsCoalesced, s.obsEvicted = b.obsCoalesced, b.obsEvicted
	b.mu.Lock()
	b.all[s] = struct{}{}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		delete(b.all, s)
		b.mu.Unlock()
		s.stop()
	}
	return s.out, cancel
}

// EventFan is a standalone many-to-many event fan-out with the same
// backpressure contract as Bus firehoses (bounded rings, coalescing with
// EvLagged markers, eviction before a terminal event would be lost) but
// no history, sequence numbering, or origin stamping: events pass
// through verbatim. The daemon's cluster-wide WatchAll hub uses one to
// merge the local bus firehose and every peer tap into any number of
// client streams.
type EventFan struct {
	mu   sync.Mutex
	subs map[*busSub]struct{}
}

// NewEventFan returns an empty fan.
func NewEventFan() *EventFan {
	return &EventFan{subs: make(map[*busSub]struct{})}
}

// Publish fans e out to every subscriber without blocking.
func (f *EventFan) Publish(e JobEvent) {
	f.mu.Lock()
	for s := range f.subs {
		if !s.enqueue(e) {
			delete(f.subs, s)
		}
	}
	f.mu.Unlock()
}

// Subscribe adds a consumer; cancel detaches it (idempotent). The channel
// also closes on eviction or fan Close.
func (f *EventFan) Subscribe() (<-chan JobEvent, func()) {
	s := newBusSub(fanRingCap, JobEvent{}, false, true)
	f.mu.Lock()
	f.subs[s] = struct{}{}
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		delete(f.subs, s)
		f.mu.Unlock()
		s.stop()
	}
	return s.out, cancel
}

// Empty reports whether the fan currently has no subscribers.
func (f *EventFan) Empty() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs) == 0
}

// Close ends every subscription.
func (f *EventFan) Close() {
	f.mu.Lock()
	subs := make([]*busSub, 0, len(f.subs))
	for s := range f.subs {
		subs = append(subs, s)
	}
	f.subs = make(map[*busSub]struct{})
	f.mu.Unlock()
	for _, s := range subs {
		s.stop()
	}
}

// --- manager integration ---

// Events returns the node's job-event bus. Subscribe with the job id
// Submit returned on this node.
func (m *Manager) Events() *Bus { return m.bus }

// publishEvent routes a lifecycle event to the bus of the job's origin
// node: locally when this node is the origin, otherwise forwarded over
// KindJobEvent. Forwarding is best effort — the event stream is
// telemetry; a dropped notice must never affect the job itself.
func (m *Manager) publishEvent(origin int, e JobEvent) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if origin == m.node.ID {
		m.bus.Publish(e)
		return
	}
	e.Origin = origin
	m.node.EP.Send(origin, netsim.KindJobEvent, EncodeJobEvent(e)) //nolint:errcheck // best effort
}

// publishEventSync routes like publishEvent but delivers to a remote
// origin over a blocking round trip. It exists for the one spot where
// best-effort ordering is not enough: a chain link about to start
// running publishes its segment-forwarded notice, and the link can run,
// complete and flush home so fast that a one-way notice loses the
// scheduling race and arrives after the terminal event — where the bus
// rightly drops it. The round trip guarantees the notice is home before
// the link's consequences are. Delivery failure still only costs the
// event (telemetry, never load-bearing).
func (m *Manager) publishEventSync(origin int, e JobEvent) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if origin == m.node.ID {
		m.bus.Publish(e)
		return
	}
	e.Origin = origin
	_, _ = m.node.EP.Call(origin, netsim.KindJobEvent, EncodeJobEvent(e))
}

// handleJobEvent receives a forwarded event for a job that originated
// here and publishes it into the local bus.
func (m *Manager) handleJobEvent(from int, payload []byte) ([]byte, error) {
	e, err := DecodeJobEvent(payload)
	if err != nil {
		return nil, err
	}
	m.bus.Publish(e)
	return nil, nil
}
