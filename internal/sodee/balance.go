package sodee

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/wire"
)

// This file is the adaptive half of Stack-on-Demand: the engine that
// turns the paper's hand-triggered MigrateSOD into on-demand elasticity.
// Nodes gossip cheap load signals over the fabric (KindLoadReport); a
// Balancer watches every node's running jobs, asks a policy.Scheduler
// when and where each should go, and executes the verdicts as whole-stack
// SOD migrations.
//
// Liveness is heartbeat-driven: every load report doubles as a heartbeat
// into the receiver's membership tracker, and send failures feed it too.
// A node that falls silent is suspected, then declared dead, and the
// tracker's verdicts flow into the failure-aware scheduler — nothing in
// this engine is ever *told* a node died (netsim's SetNodeDown is a
// fault-injection hook the detector observes, not an input).

// --- load signals: sampling and gossip ---

// LocalSignals samples this node's load: registered thread count, the
// interpreter step rate since the previous sample, the fault-locality
// counters, and the node's static capacity hints.
func (m *Manager) LocalSignals() policy.Signals {
	m.mu.Lock()
	// Read the counter under the lock: the sampling cursor and the read
	// must be serialized or a concurrent sampler could compute a negative
	// (wrapped) delta.
	instr := m.node.VM.LiveInstructions()
	now := time.Now()
	var rate float64
	if !m.lastSample.IsZero() {
		if dt := now.Sub(m.lastSample).Seconds(); dt > 0 && instr >= m.lastInstr {
			rate = float64(instr-m.lastInstr) / dt
		}
	}
	m.lastInstr, m.lastSample, m.lastRate = instr, now, rate
	m.mu.Unlock()
	return policy.Signals{
		Node:     m.node.ID,
		Runnable: m.node.VM.NumThreads(),
		Cores:    m.node.Cores,
		Speed:    m.node.Speed,
		StepRate: rate,
		Faults:   m.node.ObjMan.FetchesByOwner(),
	}
}

// piggybackWindow is how recently a peer must have received piggybacked
// signals for PublishLoad to skip its dedicated report. Well under the
// membership tracker's SuspectAfter: suppression must never starve a
// peer's failure detector of heartbeats (the piggybacked report it just
// got was one).
const piggybackWindow = 25 * time.Millisecond

// gossipFanout bounds PublishLoad's per-round report count once the known
// set outgrows gossipFanoutFloor: each round, the node reports to the next
// gossipFanout peers of a rotating window over the known set (dead ones
// included, so a rejoined node is noticed within one rotation). Below the
// floor every peer is reported to, exactly as the all-pairs detector did —
// small clusters keep their one-period detection latency. Per protocol
// period the whole cluster sends n·gossipFanout messages: O(n), not the
// all-pairs O(n²); state changes still reach everyone fast because queued
// membership updates piggyback on every report (see membership.Updates).
const (
	gossipFanout      = 4
	gossipFanoutFloor = 8
	// maxPiggybackUpdates caps the membership-update blob per report.
	maxPiggybackUpdates = 16
)

// gossipTargets picks this round's report recipients: the full known set
// below the fanout floor, otherwise the next gossipFanout ids of the
// rotating window.
func (m *Manager) gossipTargets() []int {
	known := m.node.Members.Known()
	if len(known) <= gossipFanoutFloor {
		return known
	}
	m.mu.Lock()
	start := m.gossipCursor % len(known)
	m.gossipCursor = (start + gossipFanout) % len(known)
	m.mu.Unlock()
	out := make([]int, 0, gossipFanout)
	for i := 0; i < gossipFanout; i++ {
		out = append(out, known[(start+i)%len(known)])
	}
	return out
}

// PublishLoad gossips this node's signals to this round's fanout window
// (see gossipTargets), with any queued membership updates piggybacked. It
// returns the sampled signals and the per-peer send errors (an
// unreachable peer is crash evidence for the failure detector). Peers
// that just received these signals piggybacked on a migration are
// skipped for this round — the report would be redundant traffic.
func (m *Manager) PublishLoad() (policy.Signals, map[int]error) {
	s := m.LocalSignals()
	ups := m.node.Members.Updates(maxPiggybackUpdates)
	if n := len(ups); n > 0 {
		m.met.updatesGossiped.Add(int64(n))
	}
	payload := encodeSignalsCapsUpdates(s, m.WireCaps(), ups)
	errs := make(map[int]error)
	for _, id := range m.gossipTargets() {
		if m.recentlyPiggybacked(id, piggybackWindow) {
			m.met.gossipSuppressed.Inc()
			continue
		}
		if err := m.node.EP.Send(id, netsim.KindLoadReport, payload); err != nil {
			errs[id] = err
		}
	}
	return s, errs
}

// piggybackSignals builds the load report that rides a migration data
// message: a fresh runnable count with the last-sampled step rate. It
// reads — never advances — the gossip loop's sampling cursor, so the
// periodic rate windows stay intact however many migrations fire between
// ticks.
func (m *Manager) piggybackSignals() []byte {
	m.mu.Lock()
	rate := m.lastRate
	m.mu.Unlock()
	return encodeSignalsCapsUpdates(policy.Signals{
		Node:     m.node.ID,
		Runnable: m.node.VM.NumThreads(),
		Cores:    m.node.Cores,
		Speed:    m.node.Speed,
		StepRate: rate,
		Faults:   m.node.ObjMan.FetchesByOwner(),
	}, m.WireCaps(), m.node.Members.Updates(maxPiggybackUpdates))
}

// absorbSignals records a peer's load report however it arrived —
// dedicated gossip or piggybacked on a migration — counts it as a
// heartbeat, and merges any piggybacked membership updates into the local
// view (the bounded fanout's dissemination path).
func (m *Manager) absorbSignals(s policy.Signals, caps byte, ups []membership.Update) {
	m.mu.Lock()
	m.peerLoads[s.Node] = s
	m.mu.Unlock()
	m.setPeerCaps(s.Node, caps)
	now := time.Now()
	m.node.Members.Observe(s.Node, now)
	for _, u := range ups {
		m.node.Members.Absorb(u, now)
	}
}

// GossipTick runs one heartbeat round: publish the local load, feed the
// outcome into the node's failure detector, and advance its suspicion
// clocks. It returns the sampled signals and whether the node considers
// itself connected; a node whose own uplink is gone (netsim marks this
// with ErrSelfDown) accuses nobody — its silence is for the *peers'*
// detectors to notice.
func (m *Manager) GossipTick() (policy.Signals, bool) {
	sig, errs := m.PublishLoad()
	for _, err := range errs {
		if errors.Is(err, netsim.ErrSelfDown) {
			return sig, false
		}
	}
	now := time.Now()
	for id := range errs {
		m.node.Members.ObserveFailure(id, now)
	}
	// SWIM: confirm every direct send failure through an indirect-probe
	// round (ping-req via up to k alive relays) before the detector's
	// silence timeout may escalate the peer to Dead — one slow or
	// asymmetric link must not kill a node the rest of the cluster can
	// still reach. Rounds run off the heartbeat loop: over TCP a call
	// into a dead peer can stall for a dial timeout, and a blocked
	// heartbeat loop looks exactly like a stalled sweeper — the detector
	// would forgive everyone forever.
	for id := range errs {
		m.startIndirectProbe(id)
	}
	m.node.Members.Sweep(time.Now())
	return sig, true
}

// PeerSignals returns the last gossiped report from each peer, sorted by
// node id for deterministic iteration.
func (m *Manager) PeerSignals() []policy.Signals {
	m.mu.Lock()
	out := make([]policy.Signals, 0, len(m.peerLoads))
	for _, s := range m.peerLoads {
		out = append(out, s)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// RunningJobs snapshots the jobs whose thread is currently local and
// unfinished — the migratable population, in start order. It scans the
// live-job table only: finished jobs have already been retired from it.
func (m *Manager) RunningJobs() []*Job {
	jobs := m.jobs.Values()
	out := jobs[:0]
	for _, j := range jobs {
		if !j.Done() && j.migratable() {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (m *Manager) handleLoadReport(from int, payload []byte) ([]byte, error) {
	// Every load report doubles as a heartbeat: the sender is alive. The
	// trailing capability byte (absent from older senders) negotiates the
	// migration wire format per link; the membership-update blob behind it
	// carries the piggybacked SWIM dissemination.
	s, caps, ups, err := decodeSignalsCaps(payload)
	if err != nil {
		return nil, err
	}
	m.absorbSignals(s, caps, ups)
	return nil, nil
}

// EncodeSignals serializes a load report for the wire.
func EncodeSignals(s policy.Signals) []byte {
	w := wire.NewWriter(64)
	w.Varint(int64(s.Node))
	w.Varint(int64(s.Runnable))
	w.Varint(int64(s.Cores))
	w.Fixed64(math.Float64bits(s.Speed))
	w.Fixed64(math.Float64bits(s.StepRate))
	w.Uvarint(uint64(len(s.Faults)))
	for node, c := range s.Faults {
		w.Varint(int64(node))
		w.Varint(c)
	}
	return w.Bytes()
}

// encodeSignalsCapsUpdates appends this node's wire-capability byte and
// any queued membership updates to a load report. Receivers that predate
// the capability field parse the fixed fields and never look at the tail;
// senders that predate it emit no tail and are taken as capability-zero
// with no updates. Either way the link falls back to the full-state
// migration format.
func encodeSignalsCapsUpdates(s policy.Signals, caps byte, ups []membership.Update) []byte {
	buf := append(EncodeSignals(s), caps)
	if len(ups) == 0 {
		return buf
	}
	w := wire.NewWriter(8 + 8*len(ups))
	w.Uvarint(uint64(len(ups)))
	for _, u := range ups {
		w.Varint(int64(u.Node))
		w.Byte(byte(u.State))
		w.Uvarint(u.Inc)
	}
	return append(buf, w.Bytes()...)
}

// readSignals parses the fixed load-report fields from r.
func readSignals(r *wire.Reader) policy.Signals {
	s := policy.Signals{
		Node:     int(r.Varint()),
		Runnable: int(r.Varint()),
		Cores:    int(r.Varint()),
		Speed:    math.Float64frombits(r.Fixed64()),
		StepRate: math.Float64frombits(r.Fixed64()),
	}
	if n := int(r.Uvarint()); n > 0 {
		s.Faults = make(map[int]int64, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			node := int(r.Varint())
			s.Faults[node] = r.Varint()
		}
	}
	return s
}

// DecodeSignals parses a wire-format load report.
func DecodeSignals(payload []byte) (policy.Signals, error) {
	r := wire.NewReader(payload)
	s := readSignals(r)
	return s, r.Err()
}

// decodeSignalsCaps parses a load report plus its optional trailing
// capability byte and membership-update blob.
func decodeSignalsCaps(payload []byte) (policy.Signals, byte, []membership.Update, error) {
	r := wire.NewReader(payload)
	s := readSignals(r)
	var caps byte
	if r.Err() == nil && r.Remaining() > 0 {
		caps = r.Byte()
	}
	var ups []membership.Update
	if r.Err() == nil && r.Remaining() > 0 {
		n := int(r.Uvarint())
		for i := 0; i < n && r.Err() == nil; i++ {
			ups = append(ups, membership.Update{
				Node:  int(r.Varint()),
				State: membership.State(r.Byte()),
				Inc:   r.Uvarint(),
			})
		}
	}
	return s, caps, ups, r.Err()
}

// --- the balancer ---

// BalanceOptions tunes AutoBalance.
type BalanceOptions struct {
	// Interval between gossip-and-decide ticks (default 1ms — a few
	// hundred decision rounds per second, far above the migration rate).
	Interval time.Duration
	// Frames per migration; 0 means WholeStack (offload the entire job).
	Frames int
	// Flow of the issued migrations (default FlowReturnHome: results
	// flow back to the job at its home node).
	Flow Flow
	// Steal enables the pull half: idle nodes issue steal requests to
	// loaded peers, and every node answers them, so migration is initiated
	// from either side of a link. StealPolicy tunes the margins (zero
	// value = defaults matching the Threshold push policy).
	Steal       bool
	StealPolicy policy.Steal
	// HopBudget caps lifetime migrations per job (0 = the policy package
	// default, currently 4; negative = unlimited). Migrated-in jobs are
	// re-balance- and steal-eligible until the budget is spent.
	HopBudget int
	// Cooldown quarantines a job from nodes it recently left (0 = the
	// policy package default; negative = none) — the anti-ping-pong knob.
	Cooldown time.Duration
	// Chain arms the workflow chain planner: jobs submitted chained
	// (StartJobChained / Client.SubmitChain) are placed as multi-segment
	// FlowForward pipelines instead of whole-stack pushes — each stack
	// split across the best nodes, residuals planted ahead of execution,
	// results forwarded node to node. Chain-owned jobs are skipped by the
	// push policy; everything else balances as before.
	Chain bool
	// ChainAll treats every job as chain-owned (benchmarks and clusters
	// dedicated to workflow pipelines).
	ChainAll bool
	// ChainPlanner tunes the planner (zero value = defaults).
	ChainPlanner policy.ChainPlanner
}

// BalanceStats aggregates one balancer's activity. Migrations is the
// total; Pushed/Stolen/Rebalanced split it by direction: pushes of
// home-grown jobs, steals won by this balancer's nodes, and onward moves
// of migrated-in jobs.
type BalanceStats struct {
	Ticks            int
	Decisions        int
	Migrations       int
	FailedMigrations int
	Pushed           int
	Stolen           int
	Rebalanced       int
	// Chained counts chain-plan executions (each moves one job's whole
	// stack as a multi-segment pipeline); ChainSegments counts the links
	// those plans placed, local tails included.
	Chained       int
	ChainSegments int
	// MigrationsTo counts successful migrations by destination.
	MigrationsTo map[int]int
}

// Balancer runs the cluster's adaptive offload loop until stopped.
type Balancer struct {
	c     *Cluster
	sched *policy.Scheduler
	opts  BalanceOptions

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// unsubscribe detaches the membership subscriptions feeding sched.
	unsubscribe []func()

	mu    sync.Mutex
	stats BalanceStats
	// stealBusy marks nodes with a steal request outstanding. Requests
	// run off the tick goroutine — the victim answers only after the
	// transfer, which can wait arbitrarily long for the stolen thread's
	// next safe point, and the tick also carries every node's heartbeat
	// gossip: blocking it would get healthy nodes declared dead.
	stealBusy map[int]bool
	// chainBusy counts chain executions in flight per node (same
	// off-tick reasoning as steals: planting links is a round of RPCs,
	// and the suspension waits for the thread's next safe point). Capped
	// so a burst of chained jobs pipelines its placements instead of
	// serializing behind one plant round trip per slow link.
	chainBusy map[int]int
	// chainActive marks jobs with a chain attempt in flight, so two
	// ticks cannot double-launch one job.
	chainActive map[chainKey]bool
	// chainSnooze backs off chain attempts per job after the planner
	// declines one, so the tick does not park the same thread every
	// round just to learn nothing changed.
	chainSnooze map[chainKey]time.Time
}

type chainKey struct {
	node int
	job  uint64
}

const (
	// chainSnoozeTicks is how many balance intervals a declined (or
	// failed) chain attempt sleeps before the job is considered again.
	chainSnoozeTicks = 8
	// maxChainPerNode bounds concurrent chain executions per node.
	maxChainPerNode = 4
)

// AutoBalance starts the adaptive offload engine over this cluster: every
// Interval, nodes gossip their load signals (each report doubling as a
// heartbeat) and the given policy decides, per running job, whether to
// stay or migrate and where. Decisions are executed as SOD migrations.
// Liveness flows from the nodes' membership trackers into the
// failure-aware scheduler: a destination that stops heartbeating — or
// fails a send — is excluded from every later verdict until it is heard
// from again, and a migration that fails in flight falls back to local
// execution (the job is never wedged). Call Stop to halt the loop; the
// cluster keeps working.
func (c *Cluster) AutoBalance(p policy.Policy, opts BalanceOptions) *Balancer {
	if opts.Interval <= 0 {
		opts.Interval = time.Millisecond
	}
	if opts.Frames == 0 {
		opts.Frames = WholeStack
	}
	b := &Balancer{
		c:           c,
		sched:       policy.NewScheduler(p),
		opts:        opts,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		stealBusy:   make(map[int]bool),
		chainBusy:   make(map[int]int),
		chainActive: make(map[chainKey]bool),
		chainSnooze: make(map[chainKey]time.Time),
	}
	// The hop gate rides inside the scheduler: every per-job verdict is
	// bounded by the budget and the revisit cooldown, whatever the policy.
	gate := policy.HopGate{Budget: opts.HopBudget, Cooldown: opts.Cooldown}
	b.sched.Gate = gate
	if opts.Steal {
		for _, n := range c.Nodes {
			n.Mgr.EnableSteal(opts.StealPolicy, gate)
		}
	}
	b.mu.Lock()
	b.stats.MigrationsTo = make(map[int]int)
	b.mu.Unlock()
	// Membership verdicts drive the scheduler's failed set: any node's
	// tracker declaring a peer suspect/dead bars it as a destination;
	// hearing from it again readmits it.
	for _, n := range c.Nodes {
		cancel := n.Members.OnChange(func(ev membership.Event) {
			if ev.State == membership.Alive {
				b.sched.MarkAlive(ev.Node)
			} else {
				b.sched.MarkFailed(ev.Node)
			}
		})
		b.unsubscribe = append(b.unsubscribe, cancel)
		for _, mem := range n.Members.Snapshot() {
			if mem.State != membership.Alive {
				b.sched.MarkFailed(mem.Node)
			}
		}
	}
	go b.loop()
	return b
}

// Scheduler exposes the failure-aware decision gate (tests and operators
// mark nodes failed/alive through it).
func (b *Balancer) Scheduler() *policy.Scheduler { return b.sched }

// Stats returns a copy of the balancer's counters.
func (b *Balancer) Stats() BalanceStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.MigrationsTo = make(map[int]int, len(b.stats.MigrationsTo))
	for k, v := range b.stats.MigrationsTo {
		s.MigrationsTo[k] = v
	}
	return s
}

// Stop halts the loop and waits for the in-flight tick to finish. Safe to
// call more than once.
func (b *Balancer) Stop() {
	b.stopOnce.Do(func() { close(b.stop) })
	<-b.done
	b.mu.Lock()
	cancels := b.unsubscribe
	b.unsubscribe = nil
	b.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

func (b *Balancer) loop() {
	defer close(b.done)
	ticker := time.NewTicker(b.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			b.tick()
		}
	}
}

// nodeIDs returns the cluster's node ids in ascending order.
func (b *Balancer) nodeIDs() []int {
	ids := make([]int, 0, len(b.c.Nodes))
	for id := range b.c.Nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// staticRTT is the round-trip hint for a link with no measured latency
// yet: the simulated fabric knows its configured propagation delay; a
// real transport starts at zero and relies on measurements.
func (b *Balancer) staticRTT(a, peer int) time.Duration {
	if b.c.Net == nil {
		return 0
	}
	return 2 * b.c.Net.LinkSpecBetween(a, peer).Latency
}

// tick runs one gossip round followed by one decision round.
func (b *Balancer) tick() {
	b.mu.Lock()
	b.stats.Ticks++
	b.mu.Unlock()

	ids := b.nodeIDs()

	// Gossip: every node heartbeats its load signals, and the outcome
	// feeds its failure detector (see GossipTick). A node whose own
	// uplink is gone is skipped for the decision round — its stale view
	// must not issue migrations — and its silence gets it suspected by
	// the peers' detectors, whose verdicts reach the scheduler through
	// the membership subscription.
	localSig := make(map[int]policy.Signals, len(ids))
	connected := make(map[int]bool, len(ids))
	for _, id := range ids {
		n := b.c.Nodes[id]
		sig, ok := n.Mgr.GossipTick()
		localSig[id] = sig
		connected[id] = ok
	}

	// Pull: idle nodes go hunting before the push round, so spare
	// capacity claims work even when every loaded node's policy would
	// hold. One steal attempt per idle node per tick keeps the request
	// traffic bounded.
	if b.opts.Steal {
		for _, id := range ids {
			if !connected[id] {
				continue
			}
			n := b.c.Nodes[id]
			local, ok := localSig[id]
			if !ok {
				local = n.Mgr.LocalSignals()
			}
			local.Runnable = n.VM.NumThreads()
			peers := n.Mgr.PeerSignals()
			alive := peers[:0]
			for _, p := range peers {
				if !b.sched.Failed(p.Node) {
					alive = append(alive, p)
				}
			}
			victim, ok := b.opts.StealPolicy.ShouldSteal(policy.View{Local: local, Peers: alive})
			if !ok {
				continue
			}
			// At most one outstanding request per node, issued off the
			// tick goroutine (see stealBusy).
			b.mu.Lock()
			busy := b.stealBusy[id]
			if !busy {
				b.stealBusy[id] = true
			}
			b.mu.Unlock()
			if busy {
				continue
			}
			go func(n *Node, id, victim, runnable int) {
				defer func() {
					b.mu.Lock()
					delete(b.stealBusy, id)
					b.mu.Unlock()
				}()
				won, err := n.Mgr.RequestSteal(victim, runnable)
				if err != nil {
					if isUnreachable(err) {
						n.Members.ObserveFailure(victim, time.Now())
						b.sched.MarkFailed(victim)
					}
					return
				}
				if won {
					b.mu.Lock()
					b.stats.Migrations++
					b.stats.Stolen++
					b.stats.MigrationsTo[id]++
					b.mu.Unlock()
				}
			}(n, id, victim, local.Runnable)
		}
	}

	// Decide: per node, per running job. The working copies of the local
	// and peer signals are adjusted after every issued migration so one
	// tick does not dump an entire burst onto the same idle destination.
	for _, id := range ids {
		n := b.c.Nodes[id]
		if !connected[id] {
			continue
		}
		jobs := n.Mgr.RunningJobs()
		if len(jobs) == 0 {
			continue
		}
		// Reuse the signals sampled during this tick's gossip: sampling
		// again microseconds later would compute a degenerate step rate
		// over a near-zero window.
		local, ok := localSig[id]
		if !ok {
			local = n.Mgr.LocalSignals()
		}
		// Runnable may have moved since the gossip sample; refresh it.
		local.Runnable = n.VM.NumThreads()
		peers := n.Mgr.PeerSignals()
		// RTT: prefer the EWMA of measured migration wire latencies; fall
		// back to the static link hint until a migration has been timed.
		rtt := make(map[int]time.Duration, len(peers))
		for _, p := range peers {
			if lat, measured := n.Mgr.WireLatency(p.Node); measured {
				rtt[p.Node] = lat
			} else {
				rtt[p.Node] = b.staticRTT(id, p.Node)
			}
		}
		// Chain-owned jobs go to the planner, not the push policy: their
		// stacks are split into forward pipelines, one execution in
		// flight per node (see tryChain for the off-tick reasoning).
		chainOwned := func(job *Job) bool {
			return b.opts.Chain && (b.opts.ChainAll || job.Chained())
		}
		if b.opts.Chain {
			b.tryChain(n, id, jobs, chainOwned)
		}
		for _, job := range jobs {
			if chainOwned(job) {
				continue
			}
			view := policy.View{Local: local, Peers: peers, RTT: rtt}
			// Per-job verdicts run through the hop gate: a migrated-in
			// job is eligible for further moves (re-balancing) until its
			// budget is spent, but never back to a node it just left.
			d := b.sched.DecideJob(view, job.Trace(), time.Now())
			b.mu.Lock()
			b.stats.Decisions++
			b.mu.Unlock()
			if !d.Migrate {
				continue
			}
			remote := job.Remote()
			reason := ReasonPushed
			if remote {
				reason = ReasonRebalanced
			}
			_, err := n.Mgr.MigrateSOD(job, SODOptions{
				NFrames: b.opts.Frames, Dest: d.Dest, Flow: b.opts.Flow,
				Reason: reason,
			})
			if err != nil {
				b.mu.Lock()
				b.stats.FailedMigrations++
				b.mu.Unlock()
				if isUnreachable(err) {
					// Crash evidence for the detector; the scheduler mark
					// follows from the membership event.
					n.Members.ObserveFailure(d.Dest, time.Now())
					b.sched.MarkFailed(d.Dest)
				}
				continue
			}
			b.mu.Lock()
			b.stats.Migrations++
			if remote {
				b.stats.Rebalanced++
			} else {
				b.stats.Pushed++
			}
			b.stats.MigrationsTo[d.Dest]++
			b.mu.Unlock()
			local.Runnable--
			for i := range peers {
				if peers[i].Node == d.Dest {
					peers[i].Runnable++
				}
			}
		}
	}
}

// tryChain starts at most one chain execution on node id: the first
// chain-owned job not inside its snooze window is suspended, planned
// through the scheduler's gate-and-liveness filter, and — when a plan
// comes back — executed as a planted forward pipeline. The work runs off
// the tick goroutine: planting is a round of RPCs and the suspension
// waits for the thread's next safe point, while the tick carries every
// node's heartbeat gossip. A declined or failed attempt snoozes the job
// for a few intervals so the planner is not parking the same thread
// every tick just to learn nothing changed.
func (b *Balancer) tryChain(n *Node, id int, jobs []*Job, owned func(*Job) bool) {
	now := time.Now()
	b.mu.Lock()
	for k, t := range b.chainSnooze {
		if now.After(t) {
			delete(b.chainSnooze, k)
		}
	}
	var picks []*Job
	for _, job := range jobs {
		if b.chainBusy[id] >= maxChainPerNode {
			break
		}
		if !owned(job) {
			continue
		}
		key := chainKey{id, job.ID}
		if b.chainActive[key] {
			continue
		}
		if t, ok := b.chainSnooze[key]; ok && now.Before(t) {
			continue
		}
		b.chainActive[key] = true
		b.chainBusy[id]++
		picks = append(picks, job)
	}
	b.mu.Unlock()

	for _, pick := range picks {
		pick := pick
		go func() {
			defer func() {
				b.mu.Lock()
				delete(b.chainActive, chainKey{id, pick.ID})
				if b.chainBusy[id]--; b.chainBusy[id] <= 0 {
					delete(b.chainBusy, id)
				}
				b.mu.Unlock()
			}()
			var plan policy.ChainPlan
			_, err := n.Mgr.MigrateChain(pick, func(frames []policy.FrameSignal) (policy.ChainPlan, error) {
				// The view is rebuilt *after* the thread has parked:
				// suspension can wait through a long native or a queued
				// core, and planning on the tick-time snapshot would mean
				// planning on data as stale as that wait. Local signals are
				// assembled directly (not via LocalSignals, whose step-rate
				// sampling cursor belongs to the gossip loop); the planner
				// scores on runnable/cores/speed/faults, all fresh here.
				view := policy.View{
					Local: policy.Signals{
						Node:     id,
						Runnable: n.VM.NumThreads(),
						Cores:    n.Cores,
						Speed:    n.Speed,
						Faults:   n.ObjMan.FetchesByOwner(),
					},
					Peers: n.Mgr.PeerSignals(),
				}
				view.RTT = make(map[int]time.Duration, len(view.Peers))
				for _, p := range view.Peers {
					if lat, measured := n.Mgr.WireLatency(p.Node); measured {
						view.RTT[p.Node] = lat
					} else {
						view.RTT[p.Node] = b.staticRTT(id, p.Node)
					}
				}
				p, ok := b.sched.PlanChain(policy.ChainView{
					View: view, Frames: frames, Trace: pick.Trace(),
				}, b.opts.ChainPlanner, time.Now())
				if !ok {
					return policy.ChainPlan{}, ErrChainNotPlanned
				}
				plan = p
				return p, nil
			}, ReasonChained)
			b.mu.Lock()
			defer b.mu.Unlock()
			switch {
			case err == nil:
				b.stats.Migrations++
				b.stats.Chained++
				b.stats.ChainSegments += len(plan.Segments)
				b.stats.MigrationsTo[plan.Segments[0].Dest]++
			case errors.Is(err, ErrChainNotPlanned):
				b.chainSnooze[chainKey{id, pick.ID}] = time.Now().Add(chainSnoozeTicks * b.opts.Interval)
			default:
				// Includes the ship-failed-recovered-locally case: the chain
				// still completes, but the execution did not go as planned.
				b.stats.FailedMigrations++
				b.chainSnooze[chainKey{id, pick.ID}] = time.Now().Add(chainSnoozeTicks * b.opts.Interval)
			}
		}()
	}
}

// isUnreachable classifies a migration error as a destination crash (as
// opposed to a benign race like the job finishing first).
func isUnreachable(err error) bool {
	return errors.Is(err, netsim.ErrUnreachable) || errors.Is(err, netsim.ErrSelfDown)
}
