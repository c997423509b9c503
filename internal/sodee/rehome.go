package sodee

import (
	"errors"
	"time"

	"repro/internal/netsim"
	"repro/internal/value"
	"repro/internal/wire"
)

// Origin re-homing: a job's origin node is its single point of truth — the
// waiter registration, the result-flush target, and the event stream all
// live there. The paper's elastic offload model assumes the origin outlives
// its jobs; a production cluster cannot. So every submitted job replicates
// a minimal origin shadow to a deterministic successor (the next alive node
// on the id ring): a parked Job handle, a flush route under the job's own
// id, and a shadow event stream registered at the successor's bus.
//
// The shadow is dormant while the origin lives. Two things can wake it:
//
//   - The origin completes the job normally and sends a discard: the
//     shadow completes quietly (waiters parked at the successor unblock
//     with the result), parked watch streams get one EvLagged marker plus
//     the terminal, and nothing enters the successor's history or
//     firehose — WatchAll never sees a duplicate terminal.
//
//   - The origin dies permanently. The executing node's result flush gives
//     up on the origin after the short fallback window and redirects to
//     the successor (the PR 5 recovery-route machinery: the fallback
//     completion travels with the stack). The redirected flush hits the
//     shadow route, publishes EvResultFlushed into the successor's bus —
//     promoting parked subscribers with exactly one EvLagged — and
//     completes the shadow job, which publishes the terminal with Origin
//     re-stamped to the successor.
//
// Either way every watch stream sees at most one EvLagged and exactly one
// terminal, and Wait returns the result exactly once.

// Rehome wire ops (first byte of a KindRehome payload).
const (
	rehomeReplicate byte = 1 // Call: origin → successor, create the shadow
	rehomeDiscard   byte = 2 // Send: origin completed normally, retire it
)

// originShadow is the successor-side record of one replicated origin.
type originShadow struct {
	origin  int
	job     *Job
	adopted bool // counted by adoptOrigin once membership declared the origin dead
}

// successorCandidates returns the alive peers in ring order starting just
// past this node's id — the first reachable one is the job's successor.
func (m *Manager) successorCandidates() []int {
	alive := m.node.Members.AlivePeers()
	if len(alive) == 0 {
		return nil
	}
	split := 0
	for split < len(alive) && alive[split] <= m.node.ID {
		split++
	}
	return append(alive[split:], alive[:split]...)
}

// replicateOrigin installs the job's origin shadow at its successor. It
// runs off the submit path (startJob spawns it): the replicate RPC pays
// real wire latency, and a submit burst serialized behind it would change
// the very load profile the balancer is supposed to see. The window is
// one link round-trip — far under any failure-detection timeout — and a
// watcher that races it at the successor sees "unknown job", exactly what
// any non-successor node would say. With no reachable successor the job
// simply runs un-replicated, exactly as every job did before re-homing
// existed.
func (m *Manager) replicateOrigin(job *Job) {
	w := wire.NewWriter(16)
	w.Byte(rehomeReplicate)
	w.Uvarint(job.ID)
	payload := w.Bytes()
	for _, succ := range m.successorCandidates() {
		if _, err := m.node.EP.Call(succ, netsim.KindRehome, payload); err != nil {
			continue
		}
		job.mu.Lock()
		if (job.resultFallback == completion{}) {
			job.resultFallback = completion{node: succ, token: job.ID}
		}
		fb := job.resultFallback
		var res value.Value
		var jerr error
		finished := false
		select {
		case <-job.done:
			finished = true
			res, jerr = job.result, job.err
		default:
		}
		job.mu.Unlock()
		m.met.rehomeReplicated.Inc()
		// complete() holds job.mu and reads resultFallback under it, so
		// exactly one side of this race sees the other: a job that
		// finished before the fallback was set gets its discharge here —
		// complete() saw no fallback and sent none.
		if finished {
			m.sendDischarge(job.ID, fb, res, jerr)
		}
		return
	}
}

func (m *Manager) handleRehome(from int, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	op := r.Byte()
	jobID := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.node.Members.Observe(from, time.Now())
	switch op {
	case rehomeReplicate:
		// The shadow route is registered under the job's own id: the
		// redirected flush names it (fallback.token == job id), and
		// deliverFlush publishes EvResultFlushed under the route token, so
		// any other token would mis-attribute the event. Job ids are
		// node-prefixed, so the origin's id can never collide with a token
		// this node minted.
		shadow := &Job{ID: jobID, mgr: m, done: make(chan struct{}), shadowOf: from}
		m.rehomeMu.Lock()
		if _, dup := m.shadowJobs[jobID]; dup {
			m.rehomeMu.Unlock()
			return nil, nil // replicated twice: keep the first shadow
		}
		m.shadowJobs[jobID] = &originShadow{origin: from, job: shadow}
		m.rehomeMu.Unlock()
		m.routes.Set(jobID, &route{kind: routeJob, job: shadow})
		m.jobs.Set(jobID, shadow)
		m.bus.RegisterShadow(jobID)
		return nil, nil

	case rehomeDiscard:
		evBuf := r.Blob()
		if err := r.Err(); err != nil {
			return nil, err
		}
		ev, err := DecodeJobEvent(evBuf)
		if err != nil {
			return nil, err
		}
		m.rehomeMu.Lock()
		sh, ok := m.shadowJobs[jobID]
		m.rehomeMu.Unlock()
		if !ok {
			return nil, nil
		}
		m.routes.Delete(jobID)
		// Unblock waiters parked on the shadow with the origin's outcome.
		// The event stream carries the result's integer projection only, so
		// that is what a successor-side Wait can return; the terminal is
		// suppressed from this bus's history (quiet) because the stream it
		// belongs to terminated at the origin. Completion retires the
		// shadow into the finished FIFO, like any completed origin job, so
		// late Waits still find the result.
		var jerr error
		if ev.Err != "" {
			jerr = errors.New(ev.Err)
		}
		sh.job.mu.Lock()
		sh.job.quiet = true
		sh.job.mu.Unlock()
		sh.job.complete(value.Int(ev.Result), jerr)
		ev.Origin = m.node.ID // parked subscribers asked this bus for the stream
		m.bus.DischargeShadow(jobID, ev)
		m.met.rehomeDiscarded.Inc()
		return nil, nil
	}
	return nil, errors.New("sodee: unknown rehome op")
}

// sendDischarge tells the job's successor the origin completed it — best
// effort: a lost discard leaves a dormant shadow, which is only ever
// surfaced if the origin later dies, and then delivers this same terminal.
func (m *Manager) sendDischarge(jobID uint64, fb completion, res value.Value, err error) {
	ev := JobEvent{
		Job: jobID, Origin: m.node.ID, Kind: EvCompleted,
		From: m.node.ID, To: m.node.ID, Result: res.I,
	}
	if err != nil {
		ev.Err = err.Error()
	}
	w := wire.NewWriter(64)
	w.Byte(rehomeDiscard)
	w.Uvarint(jobID)
	w.Blob(EncodeJobEvent(ev))
	m.node.EP.Send(fb.node, netsim.KindRehome, w.Bytes()) //nolint:errcheck // best effort
}

// retireShadow drops the successor-side record once the shadow job
// completed; delivered marks the re-homed path (the redirected flush
// arrived here), as opposed to a discard from a healthy origin.
func (m *Manager) retireShadow(jobID uint64, delivered bool) {
	m.rehomeMu.Lock()
	_, ok := m.shadowJobs[jobID]
	delete(m.shadowJobs, jobID)
	m.rehomeMu.Unlock()
	if ok && delivered {
		m.met.rehomeCompleted.Inc()
	}
}

// adoptOrigin records that membership declared dead a node whose jobs this
// node shadows: the shadows are now this node's to deliver. The data path
// needs no kick — the executing nodes' flush fallbacks already point here
// and redirect on their own — so adoption is bookkeeping: each affected
// shadow is counted once, however often the verdict flaps.
func (m *Manager) adoptOrigin(dead int) {
	var n int64
	m.rehomeMu.Lock()
	for _, sh := range m.shadowJobs {
		if sh.origin == dead && !sh.adopted {
			sh.adopted = true
			n++
		}
	}
	m.rehomeMu.Unlock()
	if n > 0 {
		m.met.rehomeAdopted.Add(n)
	}
}

// --- SWIM probe wire protocol ---

// indirectProbeRelays is SWIM's k: how many alive relays a failed direct
// send is confirmed through before the round counts as a miss.
const indirectProbeRelays = 3

// handlePing answers a direct liveness probe with this node's own
// incarnation — the value that outranks any stale accusation about it.
func (m *Manager) handlePing(from int, payload []byte) ([]byte, error) {
	m.node.Members.Observe(from, time.Now())
	w := wire.NewWriter(8)
	w.Uvarint(m.node.Members.Incarnation(m.node.ID))
	return w.Bytes(), nil
}

// handlePingReq relays an indirect probe: ping the target on the
// requester's behalf and pass its incarnation back. A failed relay ping is
// crash evidence for this node's own detector too.
func (m *Manager) handlePingReq(from int, payload []byte) ([]byte, error) {
	r := wire.NewReader(payload)
	target := int(r.Varint())
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.met.pingReqServed.Inc()
	m.node.Members.Observe(from, time.Now())
	reply, err := m.node.EP.Call(target, netsim.KindPing, nil)
	if err != nil {
		m.node.Members.ObserveFailure(target, time.Now())
		return nil, err
	}
	m.node.Members.Observe(target, time.Now())
	return reply, nil
}

// startIndirectProbe launches an indirect-probe round for target on its
// own goroutine, at most one in flight per target — the heartbeat loop
// must never block on relay RPCs, and re-accusing a peer every tick while
// its round is still out would multiply identical traffic.
func (m *Manager) startIndirectProbe(target int) {
	m.rehomeMu.Lock()
	if m.probeBusy[target] {
		m.rehomeMu.Unlock()
		return
	}
	m.probeBusy[target] = true
	m.rehomeMu.Unlock()
	go func() {
		defer func() {
			m.rehomeMu.Lock()
			delete(m.probeBusy, target)
			m.rehomeMu.Unlock()
		}()
		m.indirectProbe(target)
	}()
}

// indirectProbe runs one ping-req round for a peer this node failed to
// reach directly: up to indirectProbeRelays alive relays are asked to ping
// it. Any ack revives the peer (at the incarnation it answered with);
// exhausting the relays — or having none — completes the round as a miss,
// which makes the peer eligible for the detector's Dead timeout.
func (m *Manager) indirectProbe(target int) {
	w := wire.NewWriter(8)
	w.Varint(int64(target))
	payload := w.Bytes()
	tried := 0
	for _, relay := range m.node.Members.AlivePeers() {
		if relay == target {
			continue
		}
		if tried >= indirectProbeRelays {
			break
		}
		tried++
		reply, err := m.node.EP.Call(relay, netsim.KindPingReq, payload)
		if err != nil {
			continue
		}
		r := wire.NewReader(reply)
		inc := r.Uvarint()
		if r.Err() == nil {
			m.met.probeAcks.Inc()
			m.node.Members.ProbeAck(target, inc, time.Now())
			return
		}
	}
	m.met.probeMisses.Inc()
	m.node.Members.ProbeMiss(target, time.Now())
}
