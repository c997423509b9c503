package sodee

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/serial"
	"repro/internal/wire"
)

// The chain executor: Fig 1c flow-forwarding generalized to N links and
// made crash-tolerant. A chain plan splits a parked stack into
// consecutive segments; the residual links are planted on their nodes
// *before* the top segment ships ("state restored ahead of the passing
// of control", §II.B), each link's completion addressed to the link
// below it, so when a segment pops its return value hops straight to the
// next node — control never bounces through the origin, and each stage
// boundary crosses the wire exactly once.
//
// Failure posture — a crash never wedges the chain:
//
//   - A link whose node is unreachable at plant time degrades to a local
//     plant on the planning node (the FlowReturn-shaped path: the value
//     comes back here and the link runs locally).
//   - A link whose node dies *between* plant and forward is covered by a
//     recovery route: the planning node retains the link's captured
//     frames, and the completion chain carries the recovery token as a
//     fallback address — the node holding the value reroutes it there,
//     the link is rebuilt at the origin and the chain carries on. The
//     orphaned plant on the dead node never receives its value, so the
//     link still runs exactly once.
//   - A link that *has* started executing is an ordinary migrated-in job
//     (see dispatchRoute): re-balance, steal and the crash-fallback paths
//     all apply, and its result flushes with the usual retry patience.
//
// MigrateSOD's FlowForward delegates here (a manual forward is a two-link
// chain), so the hand-driven API and the planner share one code path.

// ErrChainNotPlanned reports that the plan callback declined to chain the
// job — not a failure, just "leave it where it is".
var ErrChainNotPlanned = errors.New("sodee: no chain planned")

// ChainPlanFunc produces the plan for a parked thread, given its frame
// signals top-first. Returning ErrChainNotPlanned resumes the thread
// untouched; any other error aborts the migration.
type ChainPlanFunc func(frames []policy.FrameSignal) (policy.ChainPlan, error)

// validateChainPlan rejects plans the executor cannot run: wrong frame
// total, empty links, a local link anywhere but the tail, a pinned frame
// in a remote link, or fewer than two links.
func validateChainPlan(plan policy.ChainPlan, frames []policy.FrameSignal, local int) error {
	s := len(plan.Segments)
	if s < 2 {
		return fmt.Errorf("sodee: chain plan needs at least 2 segments, got %d", s)
	}
	total := 0
	for i, seg := range plan.Segments {
		if seg.Frames < 1 {
			return fmt.Errorf("sodee: chain segment %d is empty", i)
		}
		if seg.Dest == local && i != s-1 {
			return fmt.Errorf("sodee: chain segment %d/%d placed locally (only the tail may stay)", i, s)
		}
		if seg.Dest != local {
			for k := 0; k < seg.Frames; k++ {
				if total+k < len(frames) && frames[total+k].Pinned {
					return fmt.Errorf("sodee: chain segment %d ships pinned frame %d", i, total+k)
				}
			}
		}
		total += seg.Frames
	}
	if total != len(frames) {
		return fmt.Errorf("sodee: chain plan covers %d frames of depth %d", total, len(frames))
	}
	if plan.Segments[0].Dest == local {
		return fmt.Errorf("sodee: chain's executing segment placed locally")
	}
	return nil
}

// segReturnsValue reports whether a captured segment's bottom frame
// returns a value — i.e. whether the link *below* it should expect one.
func (m *Manager) segReturnsValue(cs *serial.CapturedState) bool {
	return m.node.Prog.Methods[cs.Frames[0].MethodID].ReturnsValue
}

// plantChainLink installs one captured chain link as a parked
// continuation on a remote node; returns the token the link above must
// address its result to.
func (m *Manager) plantChainLink(node int, seg *serial.CapturedState, expectValue bool,
	next, fallback completion, meta chainLinkMeta) (uint64, error) {

	msg := migrateMsg{
		plant:       true,
		resultTo:    next,
		fallback:    fallback,
		homeNode:    int(seg.HomeNode),
		seg:         seg,
		expectValue: expectValue,
		classes:     m.bundleClasses(seg),
		chainJob:    meta.job,
		chainOrigin: meta.origin,
		chainSeg:    meta.seg,
		chainOf:     meta.segOf,
	}
	reply, _, _, err := m.sendMigrate(node, &msg)
	if err != nil {
		return 0, err
	}
	r := wire.NewReader(reply)
	tok := r.Uvarint()
	if err := r.Err(); err != nil {
		return 0, err
	}
	return tok, nil
}

// MigrateChain suspends the job's thread, asks planFn for a chain plan
// over the parked frames (top-first, with per-frame instruction counts
// from the interpreter), and executes it: residual links are planted on
// their nodes bottom-up — each addressed to the link below, each backed
// by a recovery route at the planning node — then the top segment ships
// and runs. The returned metrics describe the top segment's transfer,
// with capture covering the whole stack.
//
// Remote (migrated-in) jobs may chain too: the final value routes to the
// job's origin as usual; recovery routes are registered only when this
// node is the origin (their lifetime is tied to the local job handle).
func (m *Manager) MigrateChain(job *Job, planFn ChainPlanFunc, reason MigrateReason) (*MigrationMetrics, error) {
	if !m.migInFlight.SetIfAbsent(job.ID, struct{}{}) {
		return nil, fmt.Errorf("sodee: job %d already has a migration in flight", job.ID)
	}
	defer m.migInFlight.Delete(job.ID)

	if !job.migratable() {
		return nil, fmt.Errorf("sodee: job has no migratable thread")
	}
	th := job.Thread()
	n := m.node
	if n.Agent == nil {
		return nil, fmt.Errorf("sodee: node %d has no tool interface to capture state", n.ID)
	}
	t0 := time.Now()
	parked, err := n.Agent.SuspendAtSafePoint(th)
	if err != nil {
		return nil, err
	}
	if !parked {
		return nil, fmt.Errorf("sodee: thread finished before reaching a safe point")
	}
	depth := th.Depth()

	// Frame signals, top-first — the planner's view of the stack.
	signals := make([]policy.FrameSignal, depth)
	for d := 0; d < depth; d++ {
		f := th.Frames[depth-1-d]
		signals[d] = policy.FrameSignal{MethodID: f.Method.ID, Instrs: f.Instrs, Pinned: f.Pinned}
	}
	plan, perr := planFn(signals)
	if perr != nil {
		_ = th.Resume()
		return nil, perr
	}
	if verr := validateChainPlan(plan, signals, n.ID); verr != nil {
		_ = th.Resume()
		return nil, verr
	}
	s := len(plan.Segments)
	localTail := plan.Segments[s-1].Dest == n.ID
	nCapture := s
	if localTail {
		nCapture = s - 1
	}

	// A re-migrated job keeps its original home for statics and classes.
	home := n.ID
	if ctx, ok := th.UserData.(*threadCtx); ok && ctx.homeNode >= 0 {
		home = ctx.homeNode
	}

	// Capture every traveling link, top-first; the local tail (if any)
	// stays in the thread.
	segs := make([]*serial.CapturedState, nCapture)
	skip := 0
	for i := 0; i < nCapture; i++ {
		cs, cerr := CaptureSegment(n.Agent, th, skip, plan.Segments[i].Frames, home)
		if cerr != nil {
			_ = th.Resume()
			return nil, cerr
		}
		segs[i] = cs
		skip += plan.Segments[i].Frames
	}
	captureDone := time.Now()

	// Hop metadata, shared by every link: one more hop taken, this node
	// joins the trace (see MigrateSOD for the age encoding rationale).
	job.mu.Lock()
	hops := int32(job.hops + 1)
	var visits []serial.Visit
	for node, left := range job.visited {
		visits = append(visits, serial.Visit{Node: int32(node), AgeNanos: int64(captureDone.Sub(left))})
	}
	job.mu.Unlock()
	sort.Slice(visits, func(i, j int) bool { return visits[i].AgeNanos > visits[j].AgeNanos })
	visits = append(visits, serial.Visit{Node: int32(n.ID), AgeNanos: 0})
	for _, cs := range segs {
		cs.Hops = hops
		cs.Visited = visits
		m.homeRefs(cs)
	}
	if home != n.ID {
		m.flushUpdates(home, preHopFlushAttempts)
	}

	// finalTo: the chain's terminal consumer — the local job handle, or a
	// migrated-in job's origin. eventTo is the chain's event identity:
	// the origin bus and job id every link publishes under (for a
	// re-chained link, that differs from where its result flows). A
	// home-grown job's plan carries no re-homing fallback, so a chain
	// departure installs no origin shadow either (unlike MigrateSOD).
	finalTo := completion{node: n.ID, token: job.ID}
	var finalFB completion
	job.mu.Lock()
	if job.remote {
		finalTo = job.resultTo
		finalFB = job.resultFallback
	}
	eventTo := finalTo
	if job.evJob != 0 {
		eventTo = completion{node: job.evOrigin, token: job.evJob}
	}
	jobRemote := job.remote
	job.mu.Unlock()
	origin := eventTo.node
	withRecovery := !jobRemote

	// localVisited re-bases the shared visit trace for links that end up
	// wrapped in local job handles (degraded plants, recovery routes).
	localVisited := func() map[int]time.Time { return rebaseVisits(visits, time.Now()) }

	// Cleanup for abort paths: local routes registered so far are
	// dropped and the thread resumes in place. Remote plants already made
	// stay parked on their nodes — a bounded leak on a path that only
	// fires when our own captured state fails to restore.
	var localTokens []uint64
	var recovTokens []uint64
	abort := func(cause error) error {
		for _, tok := range localTokens {
			m.routes.Delete(tok)
		}
		for _, tok := range recovTokens {
			m.routes.Delete(tok)
		}
		_ = th.Resume()
		return cause
	}

	// Build the chain bottom-up: each link's completion addresses the one
	// below it; `next` and `nextFB` walk upward as links are placed.
	next := finalTo
	nextFB := finalFB
	var tailToken uint64
	if localTail {
		// The tail stays in this thread, truncated below; its route is
		// registered now so the link above can address it.
		expect := m.segReturnsValue(segs[nCapture-1])
		tailToken = m.newToken()
		meta := &chainLinkMeta{
			job: eventTo.token, origin: origin,
			seg: s - 1, segOf: s,
			hops: int(hops) - 1, // the tail never left this node
		}
		m.routes.Set(tailToken, &route{
			kind: routeResume, job: job, th: th,
			expectValue: expect, chain: meta,
		})
		localTokens = append(localTokens, tailToken)
		next = completion{node: n.ID, token: tailToken}
		nextFB = completion{}
		m.publishEvent(origin, JobEvent{
			Job: eventTo.token, Kind: EvSegmentPlanted,
			From: n.ID, To: n.ID,
			Reason: reason, Seg: s - 1, SegOf: s, Hops: int(hops),
		})
		m.observePlant(origin, eventTo.token, n.ID, s-1, s, 0)
	}

	for i := nCapture - 1; i >= 1; i-- {
		dest := plan.Segments[i].Dest
		expect := m.segReturnsValue(segs[i-1])
		meta := chainLinkMeta{
			job: eventTo.token, origin: origin,
			seg: i, segOf: s, hops: int(hops),
		}
		plantStart := time.Now()
		tok, perr := m.plantChainLink(dest, segs[i], expect, next, nextFB, meta)
		if perr == nil {
			m.observePlant(origin, eventTo.token, dest, i, s, time.Since(plantStart))
			arrive := completion{node: dest, token: tok}
			arriveFB := completion{}
			if withRecovery {
				// Retain the link's frames behind a recovery route: if dest
				// dies holding the parked link, the value reroutes here and
				// the link rebuilds at the origin.
				rmeta := meta
				rmeta.visited = localVisited()
				rtok := m.newToken()
				m.routes.Set(rtok, &route{
					kind: routeChainRecover, seg: segs[i],
					expectValue: expect, next: next, fallback: nextFB,
					chain: &rmeta,
				})
				m.mu.Lock()
				m.chainRecov[job.ID] = append(m.chainRecov[job.ID], rtok)
				m.mu.Unlock()
				recovTokens = append(recovTokens, rtok)
				arriveFB = completion{node: n.ID, token: rtok}
			}
			m.publishEvent(origin, JobEvent{
				Job: eventTo.token, Kind: EvSegmentPlanted,
				From: n.ID, To: dest,
				Reason: reason, Seg: i, SegOf: s, Hops: int(hops),
			})
			next, nextFB = arrive, arriveFB
			continue
		}
		// Plant failed: the node is unreachable (or rejected the state).
		// Degrade the link to a local plant — the FlowReturn-shaped path:
		// its value comes back here and the link runs on this node.
		if isUnreachable(perr) {
			n.Members.ObserveFailure(dest, time.Now())
		}
		worker, rerr := RestoreDirect(n, segs[i])
		if rerr != nil {
			return nil, abort(fmt.Errorf("sodee: plant segment %d on node %d: %w; local fallback also failed: %w", i, dest, perr, rerr))
		}
		lmeta := meta
		lmeta.visited = localVisited()
		tok = m.newToken()
		m.routes.Set(tok, &route{
			kind: routePlanted, th: worker,
			expectValue: expect, next: next, fallback: nextFB,
			chain: &lmeta,
		})
		localTokens = append(localTokens, tok)
		m.publishEvent(origin, JobEvent{
			Job: eventTo.token, Kind: EvSegmentPlanted,
			From: n.ID, To: n.ID,
			Reason: reason, Seg: i, SegOf: s, Hops: int(hops),
		})
		m.observePlant(origin, eventTo.token, n.ID, i, s, time.Since(plantStart))
		next, nextFB = completion{node: n.ID, token: tok}, completion{}
	}

	// Detach the shipped frames from the thread: truncate down to the
	// tail, or kill the thread outright when everything travels.
	if localTail {
		keep := plan.Segments[s-1].Frames
		if terr := n.Agent.TruncateTo(th, keep); terr != nil {
			return nil, abort(terr)
		}
		job.mu.Lock()
		job.waiting = true // parked tail is owned by its resume route now
		job.mu.Unlock()
	} else {
		job.Detach()
		if kerr := th.Kill(); kerr != nil {
			return nil, kerr
		}
	}

	// Ship the top segment. The hop is announced first (see MigrateSOD on
	// why the event precedes the transfer).
	seg0Expect := m.segReturnsValue(segs[0])
	dest0 := plan.Segments[0].Dest
	msg := migrateMsg{
		resultTo:    next,
		fallback:    nextFB,
		homeNode:    home,
		seg:         segs[0],
		expectValue: seg0Expect,
		classes:     m.bundleClasses(segs[0]),
		// The executing fragment keeps the chain's event identity for any
		// further moves it takes at its destination.
		chainJob:    eventTo.token,
		chainOrigin: eventTo.node,
	}
	m.publishEvent(origin, JobEvent{
		Job: eventTo.token, Kind: EvMigrated,
		From: n.ID, To: dest0,
		Reason: reason, Hops: int(hops), Seg: 0, SegOf: s,
	})
	sendStart := time.Now()
	reply, wireBytes, classBytes, serr := m.sendMigrate(dest0, &msg)
	if serr != nil {
		// The executing segment's destination is unreachable; run it here
		// instead. Its value still flows into the planted chain — only
		// the first stage's placement is lost.
		if isUnreachable(serr) {
			n.Members.ObserveFailure(dest0, time.Now())
		}
		m.met.migFailures.Inc()
		m.publishEvent(origin, JobEvent{
			Job: eventTo.token, Kind: EvMigrationFailed,
			From: n.ID, To: dest0,
			Reason: reason, Hops: int(hops), Seg: 0, SegOf: s,
		})
		worker, rerr := RestoreDirect(n, segs[0])
		if rerr != nil {
			return nil, fmt.Errorf("sodee: chain segment 0 to %d: %w; local recovery also failed: %w", dest0, serr, rerr)
		}
		if jobRemote && !localTail {
			// The wrapper's stack has fully dissolved into the chain;
			// nothing local completes it anymore.
			m.jobs.Delete(job.ID)
		}
		go m.runWorker(worker, seg0Expect, next, nextFB)
		return nil, fmt.Errorf("sodee: chain segment 0 to %d (recovered locally): %w", dest0, serr)
	}
	arrival, restoreDur, rerr := decodeMigrateReply(reply)
	if rerr != nil {
		return nil, rerr
	}
	if jobRemote && !localTail {
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
	m.observeWireLatency(dest0, mm.Transfer)
	m.observeMigration(&mm, reason, dest0, wireBytes)
	// Top-segment span quartet, same shape as MigrateSOD's: capture here
	// covers the whole stack (every link), transfer/restore the executing
	// segment's trip.
	migSpan := m.spanID()
	m.emitSpans(origin,
		obs.Span{ID: migSpan, Parent: obs.RootSpanID, Job: eventTo.token,
			Node: n.ID, Dest: dest0, Name: "migrate", Start: t0,
			Dur: mm.Latency, Bytes: wireBytes,
			Detail: fmt.Sprintf("%s, chain segment 1/%d", reason, s)},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: dest0, Name: "capture", Start: t0, Dur: mm.Capture},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: dest0, Name: "transfer", Start: sendStart,
			Dur: mm.Transfer, Bytes: wireBytes},
		obs.Span{ID: m.spanID(), Parent: migSpan, Job: eventTo.token,
			Node: n.ID, Dest: dest0, Name: "restore",
			Start: sendStart.Add(mm.Transfer), Dur: mm.Restore},
	)
	return &mm, nil
}

// observePlant records one chain link's plant — counter plus a span in
// the origin's trace covering the plant round trip (zero for the local
// tail, which never crosses the wire).
func (m *Manager) observePlant(origin int, job uint64, dest, seg, segOf int, rtt time.Duration) {
	m.met.chainPlanted.IncKeyed(job)
	m.emitSpans(origin, obs.Span{
		ID: m.spanID(), Parent: obs.RootSpanID, Job: job,
		Node: m.node.ID, Dest: dest, Name: "plant",
		Start: time.Now().Add(-rtt), Dur: rtt,
		Detail: fmt.Sprintf("segment %d/%d", seg+1, segOf),
	})
}
