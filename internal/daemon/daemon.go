// Package daemon is the deployable node runtime behind cmd/sodd and
// cmd/sodctl: one SOD node riding a real TCP transport, plus the small
// control plane a distributed deployment needs — a join protocol that
// spreads the member roster, heartbeat-driven membership, remote job
// submission and status queries. The same Daemon type powers the sodd
// binary, the examples/distributed walkthrough and the in-process
// integration tests, so the code path that ships is the code path that
// is tested.
//
// Wire protocol: everything rides netsim.KindControl frames whose first
// byte selects the operation (hello/version, join, member gossip,
// members, submit, wait, stats, load, watch/unwatch plus the streamed
// event frames). The hello exchange pins ProtocolVersion so mismatched
// sodctl/sodd builds fail with a clear error up front. Data-plane
// traffic — migrations, flushes, class shipping, load gossip, job-event
// forwarding — is the ordinary sodee protocol, unchanged from the
// simulated fabric.
package daemon

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// ProtocolVersion is the control-protocol generation this build speaks.
// Dial and Join verify it up front (opHello, and a trailing version on
// opJoin), so a version skew between sodctl/sodd binaries fails with a
// clear "protocol mismatch" error instead of a decode failure deep in
// some later exchange.
//
// v2: chained submission (opSubmitChain) and chain-position fields on
// streamed job events (segment-planted / segment-forwarded).
//
// v3: cluster-wide watch (opWatchAll) fed by daemon-to-daemon event taps
// (opTap / opTapEvent), and an Origin field on every streamed JobEvent so
// consumers key streams by (Origin, Job) across the whole cluster.
//
// v4: observability plane — opMetrics (node metrics-registry snapshot)
// and opTrace (a job's causally-ordered migration span timeline).
//
// v5: opSubmit and opSubmitChain carry a client-chosen stream generation
// and open the job's event stream in the same request, so a watched job
// needs one round trip instead of three (submit, watch, wait). Clients
// send opUnwatch one-way.
//
// v6: opEvent and opTapEvent frames carry no sequence number. The
// transport hands one peer's one-way control frames to the handler in
// send order, so neither the client nor the WatchAll hub reorders them.
const ProtocolVersion = 6

// Control operations (first byte of a KindControl payload).
const (
	opJoin        byte = 1  // {id, addr, version} → full roster; broadcast if new
	opNewMember   byte = 2  // one-way roster gossip {id, addr}
	opMembers     byte = 3  // → membership snapshot
	opSubmit      byte = 4  // {method, args..., gen} → job id; events stream as opEvent frames
	opWait        byte = 5  // {job, timeout} → result
	opStats       byte = 6  // → balancer stats
	opLoad        byte = 7  // → local+peer signals, wire latencies
	opHello       byte = 8  // {version} → {version}: protocol handshake
	opWatch       byte = 9  // {job, gen} → ack; events stream as opEvent frames
	opUnwatch     byte = 10 // {gen}: cancel one watch stream (clients send it one-way)
	opEvent       byte = 11 // daemon → client, one-way: {gen, JobEvent}
	opEventEnd    byte = 12 // daemon → client, one-way: {gen} stream over
	opSubmitChain byte = 13 // {method, args..., gen} → job id, chain-planned placement; streams like opSubmit
	opWatchAll    byte = 14 // {gen} → ack; every cluster event streams as opEvent frames
	opTap         byte = 15 // daemon ↔ daemon: {on} start/stop forwarding my bus firehose to you
	opTapEvent    byte = 16 // daemon → daemon, one-way: {JobEvent} tap traffic
	opMetrics     byte = 17 // → metrics-registry snapshot (obs.EncodeSnapshot)
	opTrace       byte = 18 // {job} → span timeline (obs.EncodeSpans); error if no trace
)

// opNames labels sod_control_requests_total by the op a frame names. The
// client-bound stream frames (opEvent, opEventEnd) have no name: a
// daemon never receives them.
var opNames = [...]string{
	opJoin: "join", opNewMember: "new_member", opMembers: "members",
	opSubmit: "submit", opWait: "wait", opStats: "stats", opLoad: "load",
	opHello: "hello", opWatch: "watch", opUnwatch: "unwatch",
	opSubmitChain: "submit_chain", opWatchAll: "watch_all", opTap: "tap",
	opTapEvent: "tap_event", opMetrics: "metrics", opTrace: "trace",
}

// Config configures one daemon.
type Config struct {
	// ID is the node's cluster-unique id (must be positive; control
	// clients use negative ids).
	ID int
	// Listen is the TCP listen address (default "127.0.0.1:0").
	Listen string
	// Workload names the program this node runs (default "cruncher");
	// every daemon in a cluster must run the same one. Prog overrides it
	// with a pre-compiled program.
	Workload string
	Prog     *bytecode.Program
	// Cores / Slow model the node's capacity (see sodee.NodeConfig).
	Cores int
	Slow  int
	// Policy selects the offload policy: "threshold" (default), "cost",
	// "rr", or "none" (no automatic pushing; with Steal unset that means
	// heartbeats only, with Steal set the node still pulls and serves
	// steal requests).
	Policy string
	// Steal arms the pull half: this daemon issues steal requests while
	// idle and answers peers' requests while loaded.
	Steal bool
	// HopBudget caps lifetime migrations per job (0 = policy default);
	// Cooldown quarantines a job from nodes it recently left.
	HopBudget int
	Cooldown  time.Duration
	// Chain arms the workflow chain planner: jobs submitted chained
	// (sodctl submit -chain, Client.SubmitChain) have their stacks split
	// into multi-segment FlowForward pipelines across the cluster.
	Chain bool
	// Interval paces the balance/heartbeat loop (default 10ms).
	Interval time.Duration
	// Membership tunes the failure detector (zero = defaults).
	Membership membership.Options
	// Logf, when set, receives progress lines (membership changes,
	// submissions).
	Logf func(format string, args ...any)
}

// BuildWorkload compiles a named workload for SOD execution. The
// registry covers the programs whose natives need no per-host setup.
func BuildWorkload(name string) (*bytecode.Program, error) {
	var raw *bytecode.Program
	switch name {
	case "", "cruncher":
		raw = workloads.Cruncher()
	case "fib":
		raw = workloads.Fib().Prog
	case "nq":
		raw = workloads.NQueens().Prog
	case "tsp":
		raw = workloads.TSP().Prog
	case "workflow":
		raw = workloads.Workflow()
	default:
		return nil, fmt.Errorf("daemon: unknown workload %q (have cruncher, fib, nq, tsp, workflow)", name)
	}
	return preprocess.MustPreprocess(raw,
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true}), nil
}

func policyByName(name string) (policy.Policy, error) {
	switch name {
	case "", "threshold":
		return policy.Threshold{}, nil
	case "cost":
		return policy.CostModel{}, nil
	case "rr":
		return &policy.RoundRobin{}, nil
	case "none":
		return nil, nil
	default:
		return nil, fmt.Errorf("daemon: unknown policy %q (have threshold, cost, rr, none)", name)
	}
}

// Daemon is one running node.
type Daemon struct {
	cfg     Config
	tr      *netsim.TCPTransport
	cluster *sodee.Cluster
	node    *sodee.Node
	bal     *sodee.Balancer

	mu    sync.Mutex
	addrs map[int]string // member id → listen address

	// watches tracks live event subscriptions so opUnwatch can cancel
	// them and Stop can end them. Streams are keyed by the client-chosen
	// generation, so several watches of one job coexist and a stale
	// stream's frames can never be mistaken for a successor's.
	watchMu sync.Mutex
	watches map[watchKey]*watchEntry

	// Cluster-wide watch plumbing. The hub fans the merged event stream
	// (local bus firehose + one tap per peer daemon) out to every
	// opWatchAll client; it spins up lazily on the first WatchAll and
	// lives until Stop. tapsOut are the streams *we* serve to peers whose
	// hubs tapped us; tapsIn are the peers we tapped, whose opTapEvent
	// frames the transport hands over in publish order.
	hubMu   sync.Mutex
	hub     *sodee.EventFan
	hubStop func()
	tapsIn  map[int]bool
	tapsOut map[int]func()

	// ctlRequests counts control frames received, per op (nil for ops
	// without a name).
	ctlRequests [len(opNames)]*obs.Counter

	// obsSrv is the opt-in observability HTTP listener (StartObs);
	// guarded by d.mu, closed by Stop.
	obsSrv *http.Server

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

type watchKey struct {
	peer int
	gen  uint64
}

type watchEntry struct {
	cancel func()
}

// New boots a daemon: listen, build the node, start the heartbeat (and,
// unless Policy is "none", the AutoBalance engine). Join connects it to
// an existing cluster afterwards.
func New(cfg Config) (*Daemon, error) {
	if cfg.ID <= 0 {
		return nil, fmt.Errorf("daemon: node id must be positive, got %d", cfg.ID)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	// The detector's timeouts must comfortably exceed the heartbeat
	// period, or its stalled-sweeper forgiveness fires every round and
	// timeout-based detection never triggers. Scale unset options with
	// the interval so a slow -interval cannot silently disable detection.
	if cfg.Membership.SuspectAfter <= 0 {
		if sa := 6 * cfg.Interval; sa > 150*time.Millisecond {
			cfg.Membership.SuspectAfter = sa
		}
	}
	if cfg.Membership.DeadAfter <= 0 {
		if da := 20 * cfg.Interval; da > 500*time.Millisecond {
			cfg.Membership.DeadAfter = da
		}
	}
	pol, err := policyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	prog := cfg.Prog
	if prog == nil {
		prog, err = BuildWorkload(cfg.Workload)
		if err != nil {
			return nil, err
		}
	}
	tr, err := netsim.NewTCPTransport(cfg.ID, cfg.Listen)
	if err != nil {
		return nil, err
	}
	// A zombie peer (socket open, process stopped) must not wedge the
	// balance loop on an unanswered RPC: bound every daemon-originated
	// Call. Control clients set their own bounds; 30s is far above any
	// healthy migration round trip.
	tr.CallTimeout = 30 * time.Second
	c := sodee.NewTransportCluster(prog)
	n, err := c.AddNodeOn(sodee.NodeConfig{
		ID: cfg.ID, Preloaded: true, Cores: cfg.Cores, Slow: cfg.Slow,
		Membership: cfg.Membership,
	}, tr)
	if err != nil {
		tr.Close() //nolint:errcheck
		return nil, err
	}
	workloads.BindCommon(n.VM)

	d := &Daemon{
		cfg:     cfg,
		tr:      tr,
		cluster: c,
		node:    n,
		addrs:   make(map[int]string),
		watches: make(map[watchKey]*watchEntry),
		tapsIn:  make(map[int]bool),
		tapsOut: make(map[int]func()),
		stopCh:  make(chan struct{}),
	}
	for op, name := range opNames {
		if name != "" {
			d.ctlRequests[op] = n.Obs.Counter(obs.Label("sod_control_requests_total", "op", name))
		}
	}
	tr.Handle(netsim.KindControl, d.handleControl)
	// A peer's connection dying must promptly release everything streaming
	// toward it — watch streams, WatchAll streams, and tap feeds — or every
	// client churn leaks a parked goroutine plus its ring buffers.
	tr.SetPeerDownHook(d.peerDown)
	if cfg.Logf != nil {
		n.Members.OnChange(func(ev membership.Event) {
			cfg.Logf("sodd[%d]: member %d is %v", cfg.ID, ev.Node, ev.State)
		})
	}
	if pol == nil && cfg.Steal {
		// Steal-only: the balance loop still runs (gossip, steals) but the
		// push policy never fires.
		pol = policy.Never{}
	}
	if pol == nil && cfg.Chain {
		// Chain-only: the planner owns chained jobs; nothing pushes.
		pol = policy.Never{}
	}
	if pol != nil {
		d.bal = c.AutoBalance(pol, sodee.BalanceOptions{
			Interval: cfg.Interval, Steal: cfg.Steal,
			HopBudget: cfg.HopBudget, Cooldown: cfg.Cooldown,
			Chain: cfg.Chain,
		})
	} else {
		// No balancer: run the heartbeat loop alone so membership still
		// detects crashes and rejoins.
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			ticker := time.NewTicker(cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-d.stopCh:
					return
				case <-ticker.C:
					d.node.Mgr.GossipTick()
				}
			}
		}()
	}
	return d, nil
}

// Addr returns the daemon's listen address.
func (d *Daemon) Addr() string { return d.tr.Addr() }

// ID returns the daemon's node id.
func (d *Daemon) ID() int { return d.cfg.ID }

// Node exposes the underlying runtime node (tests, examples).
func (d *Daemon) Node() *sodee.Node { return d.node }

// Stats returns the balancer's counters (zero if Policy was "none").
func (d *Daemon) Stats() sodee.BalanceStats {
	if d.bal == nil {
		return sodee.BalanceStats{}
	}
	return d.bal.Stats()
}

// StealStats returns the node-level steal counters (requests sent and
// served, grants, denials, failed transfers).
func (d *Daemon) StealStats() sodee.StealStats {
	return d.node.Mgr.StealStats()
}

// Stop halts balancing and heartbeats and tears the transport down —
// from the peers' point of view this is a crash: no goodbye is sent,
// and their failure detectors must notice on their own.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() {
		close(d.stopCh)
		d.mu.Lock()
		obsSrv := d.obsSrv
		d.obsSrv = nil
		d.mu.Unlock()
		if obsSrv != nil {
			obsSrv.Close() //nolint:errcheck // teardown; the Serve goroutine exits via wg
		}
		if d.bal != nil {
			d.bal.Stop()
		}
		d.wg.Wait()
		// End every live watch stream; the forwarding goroutines see their
		// channels close and exit.
		d.watchMu.Lock()
		entries := make([]*watchEntry, 0, len(d.watches))
		for _, e := range d.watches {
			entries = append(entries, e)
		}
		d.watches = make(map[watchKey]*watchEntry)
		d.watchMu.Unlock()
		for _, e := range entries {
			e.cancel()
		}
		// Tear the WatchAll hub down: close client streams, stop the local
		// firehose, and end every tap feed we were serving to peers.
		d.hubMu.Lock()
		hub, hubStop := d.hub, d.hubStop
		d.hub, d.hubStop = nil, nil
		taps := make([]func(), 0, len(d.tapsOut))
		for _, cancel := range d.tapsOut {
			taps = append(taps, cancel)
		}
		d.tapsOut = make(map[int]func())
		d.tapsIn = make(map[int]bool)
		d.hubMu.Unlock()
		if hubStop != nil {
			hubStop()
		}
		if hub != nil {
			hub.Close()
		}
		for _, cancel := range taps {
			cancel()
		}
		d.tr.Close() //nolint:errcheck
	})
}

// logf emits a progress line when configured.
func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// addMember records a member's address and marks it alive.
func (d *Daemon) addMember(id int, addr string) (isNew bool) {
	if id == d.cfg.ID {
		return false
	}
	d.mu.Lock()
	_, known := d.addrs[id]
	d.addrs[id] = addr
	d.mu.Unlock()
	d.node.Members.Join(id, time.Now())
	if !known {
		d.logf("sodd[%d]: member %d joined at %s", d.cfg.ID, id, addr)
	}
	// A live hub taps every member it has no feed from — covering both
	// newcomers and rejoining peers whose old tap died with their
	// connection.
	d.hubMu.Lock()
	needTap := d.hub != nil && !d.tapsIn[id]
	d.hubMu.Unlock()
	if needTap {
		d.requestTap(id)
	}
	return !known
}

// roster snapshots the member table including this daemon itself. With
// includeDead false, members the failure detector has declared dead are
// left out — a joiner should not burn its dial budget on corpses (if one
// rejoins, it announces itself anyway).
func (d *Daemon) roster(includeDead bool) map[int]string {
	d.mu.Lock()
	addrs := make(map[int]string, len(d.addrs))
	for id, addr := range d.addrs {
		addrs[id] = addr
	}
	d.mu.Unlock()
	out := make(map[int]string, len(addrs)+1)
	for id, addr := range addrs {
		if !includeDead && d.node.Members.State(id) == membership.Dead {
			continue
		}
		out[id] = addr
	}
	out[d.cfg.ID] = d.tr.Addr()
	return out
}

// Join connects this daemon into the cluster reachable at seedAddr: it
// dials the seed, announces itself, and walks the returned roster until
// it is connected to every member. An unreachable seed is an error; an
// unreachable *roster* member is not — it may have died since the seed
// last heard from it, and the failure detectors own that question. Safe
// to call with several seeds.
func (d *Daemon) Join(seedAddr string) error {
	type target struct {
		addr string
		seed bool
	}
	pending := []target{{addr: seedAddr, seed: true}}
	seen := map[string]bool{d.tr.Addr(): true}
	for len(pending) > 0 {
		tg := pending[0]
		pending = pending[1:]
		if seen[tg.addr] {
			continue
		}
		seen[tg.addr] = true
		peerID, err := d.tr.Connect(tg.addr)
		if err != nil {
			if tg.seed {
				return fmt.Errorf("daemon %d join %s: %w", d.cfg.ID, tg.addr, err)
			}
			d.logf("sodd[%d]: roster member at %s unreachable (%v); skipping", d.cfg.ID, tg.addr, err)
			continue
		}
		if tg.seed {
			// Version-check the seed before announcing: a protocol skew
			// must fail loudly here, not as a decode error later.
			if err := helloCheck(d.tr, peerID); err != nil {
				return fmt.Errorf("daemon %d join %s: %w", d.cfg.ID, tg.addr, err)
			}
		}
		d.addMember(peerID, tg.addr)
		w := wire.NewWriter(64)
		w.Byte(opJoin)
		w.Varint(int64(d.cfg.ID))
		w.Blob([]byte(d.tr.Addr()))
		w.Uvarint(ProtocolVersion)
		reply, err := d.tr.Call(peerID, netsim.KindControl, w.Bytes())
		if err != nil {
			if tg.seed {
				return fmt.Errorf("daemon %d announce to %d: %w", d.cfg.ID, peerID, err)
			}
			d.logf("sodd[%d]: announce to member %d failed (%v); skipping", d.cfg.ID, peerID, err)
			continue
		}
		roster, err := decodeRoster(reply)
		if err != nil {
			return err
		}
		for id, maddr := range roster {
			if id == d.cfg.ID {
				continue
			}
			d.mu.Lock()
			_, known := d.addrs[id]
			d.mu.Unlock()
			if !known && !seen[maddr] {
				pending = append(pending, target{addr: maddr})
			}
		}
	}
	return nil
}

// Submit starts a job on this node (local API; the remote path is
// opSubmit). The job participates in AutoBalance like any other.
func (d *Daemon) Submit(method string, args ...int64) (*sodee.Job, error) {
	return d.submit(method, false, args...)
}

// SubmitChain starts a chain-owned job: the balancer's chain planner
// places its stack as a forward pipeline (the daemon must run with
// Config.Chain; without it the mark has no effect and the job balances
// like any ordinary submission).
func (d *Daemon) SubmitChain(method string, args ...int64) (*sodee.Job, error) {
	return d.submit(method, true, args...)
}

func (d *Daemon) submit(method string, chained bool, args ...int64) (*sodee.Job, error) {
	vals := make([]value.Value, len(args))
	for i, a := range args {
		vals[i] = value.Int(a)
	}
	start := d.node.Mgr.StartJob
	if chained {
		start = d.node.Mgr.StartJobChained
	}
	job, err := start(method, vals...)
	if err != nil {
		return nil, err
	}
	d.logf("sodd[%d]: job %d started (%s)", d.cfg.ID, job.ID, method)
	return job, nil
}

// --- control-plane handler ---

func (d *Daemon) handleControl(from int, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("daemon: empty control frame")
	}
	if op := int(payload[0]); op < len(d.ctlRequests) && d.ctlRequests[op] != nil {
		d.ctlRequests[op].IncKeyed(uint64(from))
	}
	r := wire.NewReader(payload[1:])
	switch payload[0] {
	case opJoin:
		return d.handleJoin(r)
	case opNewMember:
		// Dialing the newcomer can take seconds; the peer's later one-way
		// frames (its tap events) must not queue behind it.
		go d.handleNewMember(r) //nolint:errcheck // gossip is best effort
		return nil, nil
	case opMembers:
		return d.handleMembers()
	case opSubmit:
		return d.handleSubmit(from, r, false)
	case opSubmitChain:
		return d.handleSubmit(from, r, true)
	case opWait:
		return d.handleWait(r)
	case opStats:
		return d.handleStats()
	case opLoad:
		return d.handleLoad()
	case opHello:
		return d.handleHello(r)
	case opWatch:
		return d.handleWatch(from, r)
	case opUnwatch:
		return d.handleUnwatch(from, r)
	case opWatchAll:
		return d.handleWatchAll(from, r)
	case opTap:
		return d.handleTap(from, r)
	case opTapEvent:
		return nil, d.handleTapEvent(from, payload[1:])
	case opMetrics:
		return d.handleMetrics()
	case opTrace:
		return d.handleTrace(r)
	default:
		return nil, fmt.Errorf("daemon: unknown control op %d", payload[0])
	}
}

// helloCheck runs the opHello version exchange against peer and turns any
// skew into a descriptive error. A peer that rejects the op outright is a
// pre-versioning build.
func helloCheck(tr *netsim.TCPTransport, peer int) error {
	w := wire.NewWriter(4)
	w.Byte(opHello)
	w.Uvarint(ProtocolVersion)
	reply, err := tr.Call(peer, netsim.KindControl, w.Bytes())
	if err != nil {
		if strings.Contains(err.Error(), "unknown control op") {
			return fmt.Errorf("daemon: peer %d speaks a pre-versioning control protocol; this build needs v%d", peer, ProtocolVersion)
		}
		return err
	}
	r := wire.NewReader(reply)
	v := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if v != ProtocolVersion {
		return fmt.Errorf("daemon: control protocol mismatch: peer %d speaks v%d, this build v%d", peer, v, ProtocolVersion)
	}
	return nil
}

func (d *Daemon) handleHello(r *wire.Reader) ([]byte, error) {
	peerVersion := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if peerVersion != ProtocolVersion {
		return nil, fmt.Errorf("daemon: control protocol mismatch: you speak v%d, this daemon v%d", peerVersion, ProtocolVersion)
	}
	w := wire.NewWriter(4)
	w.Uvarint(ProtocolVersion)
	return w.Bytes(), nil
}

func encodeRoster(roster map[int]string) []byte {
	w := wire.NewWriter(64)
	w.Uvarint(uint64(len(roster)))
	for id, addr := range roster {
		w.Varint(int64(id))
		w.Blob([]byte(addr))
	}
	return w.Bytes()
}

func decodeRoster(payload []byte) (map[int]string, error) {
	r := wire.NewReader(payload)
	n := int(r.Uvarint())
	out := make(map[int]string, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := int(r.Varint())
		out[id] = string(r.Blob())
	}
	return out, r.Err()
}

func (d *Daemon) handleJoin(r *wire.Reader) ([]byte, error) {
	id := int(r.Varint())
	addr := string(r.Blob())
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Pre-versioning daemons sent no trailing version; treat them as v0.
	var joinerVersion uint64
	if r.Remaining() > 0 {
		joinerVersion = r.Uvarint()
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	if joinerVersion != ProtocolVersion {
		return nil, fmt.Errorf("daemon: control protocol mismatch: joining daemon %d speaks v%d, this daemon v%d", id, joinerVersion, ProtocolVersion)
	}
	isNew := d.addMember(id, addr)
	if isNew {
		// Spread the news so every member dials the newcomer.
		w := wire.NewWriter(64)
		w.Byte(opNewMember)
		w.Varint(int64(id))
		w.Blob([]byte(addr))
		gossip := w.Bytes()
		d.mu.Lock()
		others := make([]int, 0, len(d.addrs))
		for mid := range d.addrs {
			if mid != id {
				others = append(others, mid)
			}
		}
		d.mu.Unlock()
		for _, mid := range others {
			d.tr.Send(mid, netsim.KindControl, gossip) //nolint:errcheck // best effort; detector handles the dead
		}
	}
	return encodeRoster(d.roster(false)), nil
}

func (d *Daemon) handleNewMember(r *wire.Reader) error {
	id := int(r.Varint())
	addr := string(r.Blob())
	if err := r.Err(); err != nil {
		return err
	}
	if id == d.cfg.ID {
		return nil
	}
	d.mu.Lock()
	_, known := d.addrs[id]
	d.mu.Unlock()
	if known {
		return nil
	}
	got, err := d.tr.Connect(addr)
	if err != nil {
		return err
	}
	if got != id {
		return fmt.Errorf("daemon: member %d gossiped at %s but %d answered", id, addr, got)
	}
	d.addMember(id, addr)
	return nil
}

func (d *Daemon) handleMembers() ([]byte, error) {
	snap := d.node.Members.Snapshot()
	roster := d.roster(true)
	now := time.Now()
	w := wire.NewWriter(128)
	w.Varint(int64(d.cfg.ID))
	w.Uvarint(uint64(len(snap)))
	for _, m := range snap {
		w.Varint(int64(m.Node))
		w.Byte(byte(m.State))
		w.Uvarint(uint64(now.Sub(m.LastHeard) / time.Millisecond))
		w.Blob([]byte(roster[m.Node]))
	}
	return w.Bytes(), nil
}

// handleSubmit starts a job and opens its event stream toward the
// submitter under the client-chosen generation, before replying: the
// stream replays the bus history, so nothing published between the start
// and the subscribe is lost. The stream is a watch like any other —
// opUnwatch, peerDown and Stop end it the same way. If it cannot be
// opened the client gets opEventEnd and falls back to opWait.
func (d *Daemon) handleSubmit(from int, r *wire.Reader, chained bool) ([]byte, error) {
	method := string(r.Blob())
	n := int(r.Uvarint())
	args := make([]int64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		args[i] = r.Varint()
	}
	gen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	job, err := d.submit(method, chained, args...)
	if err != nil {
		return nil, err
	}
	if err := d.watchJob(from, gen, job.ID); err != nil {
		d.sendEventEnd(from, gen)
	}
	w := wire.NewWriter(16)
	w.Uvarint(job.ID)
	return w.Bytes(), nil
}

func (d *Daemon) handleWait(r *wire.Reader) ([]byte, error) {
	jobID := r.Uvarint()
	timeoutMs := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The manager answers for jobs started here and for re-homing shadows
	// this node holds as successor of their origin: a client whose origin
	// died re-issues its Wait here, and the shadow completes with the
	// redirected result.
	job, ok := d.node.Mgr.Job(jobID)
	if !ok {
		return nil, fmt.Errorf("daemon: no job %d", jobID)
	}
	w := wire.NewWriter(32)
	if !job.Done() && timeoutMs > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(timeoutMs)*time.Millisecond)
		job.WaitContext(ctx) //nolint:errcheck // outcome re-read below
		cancel()
	}
	if job.Done() {
		// A zero timeout is the "is it done?" probe: it must answer from
		// the job's state, never lose a race against an already-expired
		// timer.
		res, err := job.Wait()
		w.Byte(1)
		w.Varint(res.I)
		if err != nil {
			w.Blob([]byte(err.Error()))
		} else {
			w.Blob(nil)
		}
	} else {
		w.Byte(0)
		w.Varint(0)
		w.Blob(nil)
	}
	return w.Bytes(), nil
}

func (d *Daemon) handleStats() ([]byte, error) {
	st := d.Stats()
	ss := d.StealStats()
	w := wire.NewWriter(96)
	w.Uvarint(uint64(st.Ticks))
	w.Uvarint(uint64(st.Decisions))
	w.Uvarint(uint64(st.Migrations))
	w.Uvarint(uint64(st.FailedMigrations))
	// Per-direction split: pushed / stolen / rebalanced / chained.
	w.Uvarint(uint64(st.Pushed))
	w.Uvarint(uint64(st.Stolen))
	w.Uvarint(uint64(st.Rebalanced))
	w.Uvarint(uint64(st.Chained))
	w.Uvarint(uint64(st.ChainSegments))
	// Node-level steal counters.
	w.Uvarint(uint64(ss.RequestsSent))
	w.Uvarint(uint64(ss.Won))
	w.Uvarint(uint64(ss.RequestsServed))
	w.Uvarint(uint64(ss.Granted))
	w.Uvarint(uint64(ss.Denied))
	w.Uvarint(uint64(ss.FailedTransfers))
	w.Uvarint(uint64(len(st.MigrationsTo)))
	for dest, cnt := range st.MigrationsTo {
		w.Varint(int64(dest))
		w.Uvarint(uint64(cnt))
	}
	return w.Bytes(), nil
}

// handleMetrics snapshots the node's metrics registry for opMetrics. The
// reply is the obs wire encoding; clients merge snapshots across daemons
// for a cluster view.
func (d *Daemon) handleMetrics() ([]byte, error) {
	return obs.EncodeSnapshot(d.node.Obs.Snapshot()), nil
}

// handleTrace returns a job's span timeline for opTrace. Spans accumulate
// at the job's *origin* node (remote hops forward theirs home), so the
// client asks the daemon that started the job; an unknown job — or one
// whose trace has been evicted — is an error, not an empty reply.
func (d *Daemon) handleTrace(r *wire.Reader) ([]byte, error) {
	jobID := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	spans := d.node.Trace.Get(jobID)
	if len(spans) == 0 {
		return nil, fmt.Errorf("daemon: no trace for job %d (wrong origin node, or evicted)", jobID)
	}
	return obs.EncodeSpans(spans), nil
}

// handleWatch subscribes the requesting client to a job's event stream.
// The ack reply is empty; events follow as one-way opEvent frames on the
// same connection, each tagged with the watch's generation, ending with
// the job's terminal event or an opEventEnd marker. Generations are
// chosen by the client, so several watches of one job run side by side
// and frames from a cancelled stream cannot leak into a successor.
func (d *Daemon) handleWatch(from int, r *wire.Reader) ([]byte, error) {
	jobID := r.Uvarint()
	gen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return nil, d.watchJob(from, gen, jobID)
}

// watchJob subscribes peer to a job's bus stream under generation gen and
// starts forwarding it (the shared half of opWatch and opSubmit).
func (d *Daemon) watchJob(peer int, gen, jobID uint64) error {
	select {
	case <-d.stopCh:
		return fmt.Errorf("daemon: shutting down")
	default:
	}
	ch, cancel, ok := d.node.Mgr.Events().Subscribe(jobID)
	if !ok {
		return fmt.Errorf("daemon: no job %d", jobID)
	}
	key := watchKey{peer: peer, gen: gen}
	entry := &watchEntry{cancel: cancel}
	d.watchMu.Lock()
	if old := d.watches[key]; old != nil {
		old.cancel() // client reused a generation; end the orphan
	}
	d.watches[key] = entry
	d.watchMu.Unlock()
	go d.streamEvents(key, entry, ch, true)
	return nil
}

// handleWatchAll subscribes the requesting client to the cluster-wide
// event hub: every job event from every node, streamed over the same
// opEvent/opEventEnd frames as a per-job watch. The stream never ends on
// a terminal event — it ends on opUnwatch, daemon shutdown, or eviction
// (the hub's backpressure contract: a client too slow to keep even job
// outcomes is cut off, observed as opEventEnd without a prior unwatch).
func (d *Daemon) handleWatchAll(from int, r *wire.Reader) ([]byte, error) {
	gen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	select {
	case <-d.stopCh:
		return nil, fmt.Errorf("daemon: shutting down")
	default:
	}
	hub := d.ensureHub()
	if hub == nil {
		return nil, fmt.Errorf("daemon: shutting down")
	}
	ch, cancel := hub.Subscribe()
	key := watchKey{peer: from, gen: gen}
	entry := &watchEntry{cancel: cancel}
	d.watchMu.Lock()
	if old := d.watches[key]; old != nil {
		old.cancel()
	}
	d.watches[key] = entry
	d.watchMu.Unlock()
	go d.streamEvents(key, entry, ch, false)
	return nil, nil
}

// ensureHub lazily spins up the cluster-wide event hub: one EventFan fed
// by the local bus firehose plus a tap on every peer daemon. Once up it
// lives until Stop; peers joining later are tapped as they join.
func (d *Daemon) ensureHub() *sodee.EventFan {
	d.hubMu.Lock()
	if d.hub != nil {
		hub := d.hub
		d.hubMu.Unlock()
		return hub
	}
	select {
	case <-d.stopCh:
		d.hubMu.Unlock()
		return nil
	default:
	}
	hub := sodee.NewEventFan()
	ch, cancel := d.node.Mgr.Events().SubscribeAll()
	d.hub, d.hubStop = hub, cancel
	d.hubMu.Unlock()
	go func() {
		for ev := range ch {
			hub.Publish(ev)
		}
	}()
	d.mu.Lock()
	peers := make([]int, 0, len(d.addrs))
	for id := range d.addrs {
		peers = append(peers, id)
	}
	d.mu.Unlock()
	for _, id := range peers {
		d.requestTap(id)
	}
	return hub
}

// requestTap asks peer to forward its bus firehose here (best effort —
// an unreachable peer's events are simply absent until it rejoins and is
// re-tapped).
func (d *Daemon) requestTap(peer int) {
	d.hubMu.Lock()
	if d.hub == nil {
		d.hubMu.Unlock()
		return
	}
	d.tapsIn[peer] = true
	d.hubMu.Unlock()
	w := wire.NewWriter(4)
	w.Byte(opTap)
	w.Byte(1)
	d.tr.Send(peer, netsim.KindControl, w.Bytes()) //nolint:errcheck // telemetry, never load-bearing
}

// handleTap starts (on=1) or stops (on=0) forwarding this daemon's bus
// firehose to the requesting peer as opTapEvent frames.
func (d *Daemon) handleTap(from int, r *wire.Reader) ([]byte, error) {
	on := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	d.hubMu.Lock()
	if old := d.tapsOut[from]; old != nil {
		old()
		delete(d.tapsOut, from)
	}
	if on == 0 {
		d.hubMu.Unlock()
		return nil, nil
	}
	select {
	case <-d.stopCh:
		d.hubMu.Unlock()
		return nil, fmt.Errorf("daemon: shutting down")
	default:
	}
	ch, cancel := d.node.Mgr.Events().SubscribeAll()
	d.tapsOut[from] = cancel
	d.hubMu.Unlock()
	go func() {
		defer cancel()
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					return
				}
				w := wire.NewWriter(96)
				w.Byte(opTapEvent)
				w.Raw(sodee.EncodeJobEvent(ev))
				if err := d.tr.Send(from, netsim.KindControl, w.Bytes()); err != nil {
					return
				}
			case <-d.stopCh:
				return
			}
		}
	}()
	return nil, nil
}

// handleTapEvent feeds one event of a peer's tap stream, which arrives
// in publish order, to the hub. Frames from a peer we no longer tap (hub
// gone, peer's connection died) are dropped.
func (d *Daemon) handleTapEvent(from int, payload []byte) error {
	ev, err := sodee.DecodeJobEvent(payload)
	if err != nil {
		return err
	}
	d.hubMu.Lock()
	hub, tapped := d.hub, d.tapsIn[from]
	d.hubMu.Unlock()
	if hub != nil && tapped {
		hub.Publish(ev)
	}
	return nil
}

// peerDown reacts to a connection dying: every stream pointed at the
// peer is cancelled so its goroutine and ring buffers release promptly
// (a dead sodctl must not park a stream until shutdown), and tap state
// for the peer is dropped — a rejoining peer is re-tapped from scratch.
func (d *Daemon) peerDown(peer int) {
	d.watchMu.Lock()
	var entries []*watchEntry
	for key, e := range d.watches {
		if key.peer == peer {
			entries = append(entries, e)
			delete(d.watches, key)
		}
	}
	d.watchMu.Unlock()
	for _, e := range entries {
		e.cancel()
	}
	d.hubMu.Lock()
	tapOut := d.tapsOut[peer]
	delete(d.tapsOut, peer)
	delete(d.tapsIn, peer)
	d.hubMu.Unlock()
	if tapOut != nil {
		tapOut()
	}
}

func (d *Daemon) handleUnwatch(from int, r *wire.Reader) ([]byte, error) {
	gen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	key := watchKey{peer: from, gen: gen}
	d.watchMu.Lock()
	entry := d.watches[key]
	delete(d.watches, key)
	d.watchMu.Unlock()
	if entry != nil {
		entry.cancel()
	}
	return nil, nil
}

// streamEvents forwards one subscription's events to its client until the
// stream ends (terminal event or cancellation), the client stops
// accepting frames, or the daemon shuts down. With endOnTerminal false
// (WatchAll) the stream outlives any one job's terminal event and only
// ends on cancellation or eviction. If the stream ends without a
// terminal event having been sent, an opEventEnd marker tells the client
// to close its channel rather than wait for a completion that will never
// come.
func (d *Daemon) streamEvents(key watchKey, entry *watchEntry, ch <-chan sodee.JobEvent, endOnTerminal bool) {
	sentTerminal := false
	defer func() {
		entry.cancel()
		d.watchMu.Lock()
		if d.watches[key] == entry {
			delete(d.watches, key)
		}
		d.watchMu.Unlock()
		if !sentTerminal {
			d.sendEventEnd(key.peer, key.gen)
		}
	}()
	// One goroutine sends the whole stream, its opEventEnd included, so
	// the client's transport hands the frames over in this order.
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			w := wire.NewWriter(96)
			w.Byte(opEvent)
			w.Uvarint(key.gen)
			w.Raw(sodee.EncodeJobEvent(ev))
			if err := d.tr.Send(key.peer, netsim.KindControl, w.Bytes()); err != nil {
				return
			}
			if ev.Terminal() && endOnTerminal {
				sentTerminal = true
				return
			}
		case <-d.stopCh:
			return
		}
	}
}

// sendEventEnd tells peer that stream gen is over without a terminal.
func (d *Daemon) sendEventEnd(peer int, gen uint64) {
	w := wire.NewWriter(12)
	w.Byte(opEventEnd)
	w.Uvarint(gen)
	d.tr.Send(peer, netsim.KindControl, w.Bytes()) //nolint:errcheck // stream is over either way
}

func (d *Daemon) handleLoad() ([]byte, error) {
	local := d.node.Mgr.LocalSignals()
	peers := d.node.Mgr.PeerSignals()
	lats := d.node.Mgr.WireLatencies()
	w := wire.NewWriter(256)
	w.Blob(sodee.EncodeSignals(local))
	w.Uvarint(uint64(len(peers)))
	for _, p := range peers {
		w.Blob(sodee.EncodeSignals(p))
	}
	w.Uvarint(uint64(len(lats)))
	for dest, lat := range lats {
		w.Varint(int64(dest))
		w.Uvarint(uint64(lat))
	}
	return w.Bytes(), nil
}
