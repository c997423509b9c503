package sodee_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// These tests run the runtime over real TCP loopback sockets instead of
// the simulated fabric: the transport seam means the same Manager code
// paths (gossip, whole-stack migration, result flush, class shipping
// metadata) must work unchanged on both.

// tcpPair builds a two-node cluster where each node rides its own
// TCPTransport, fully meshed, with mutual membership registration.
func tcpPair(t *testing.T, cfg1, cfg2 sodee.NodeConfig) (*sodee.Cluster, func()) {
	t.Helper()
	prog := preprocess.MustPreprocess(workloads.Cruncher(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	return tcpPairProg(t, prog, cfg1, cfg2)
}

// tcpPairProg is tcpPair over an arbitrary preprocessed program.
func tcpPairProg(t *testing.T, prog *bytecode.Program, cfg1, cfg2 sodee.NodeConfig) (*sodee.Cluster, func()) {
	t.Helper()
	c := sodee.NewTransportCluster(prog)

	tr1, err := netsim.NewTCPTransport(cfg1.ID, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := netsim.NewTCPTransport(cfg2.ID, "127.0.0.1:0")
	if err != nil {
		tr1.Close() //nolint:errcheck
		t.Fatal(err)
	}
	cleanup := func() {
		tr1.Close() //nolint:errcheck
		tr2.Close() //nolint:errcheck
	}
	if id, err := tr1.Connect(tr2.Addr()); err != nil || id != cfg2.ID {
		cleanup()
		t.Fatalf("connect: id=%d err=%v", id, err)
	}
	n1, err := c.AddNodeOn(cfg1, tr1)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	n2, err := c.AddNodeOn(cfg2, tr2)
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	now := time.Now()
	n1.Members.Join(cfg2.ID, now)
	n2.Members.Join(cfg1.ID, now)
	return c, cleanup
}

// TestLoadGossipOverTCP: a KindLoadReport published over real sockets
// lands in the peer's gossip table with the right capacity hints, and
// doubles as a heartbeat into the receiver's membership tracker.
func TestLoadGossipOverTCP(t *testing.T) {
	c, cleanup := tcpPair(t,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 8},
		sodee.NodeConfig{ID: 2, Preloaded: true, Cores: 2},
	)
	defer cleanup()
	n1, n2 := c.Nodes[1], c.Nodes[2]

	if _, errs := n1.Mgr.PublishLoad(); len(errs) != 0 {
		t.Fatalf("publish over TCP: %v", errs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sigs := n2.Mgr.PeerSignals()
		if len(sigs) == 1 {
			s := sigs[0]
			if s.Node != 1 || s.Cores != 1 {
				t.Fatalf("gossiped signals corrupted in transit: %+v", s)
			}
			if s.Speed >= 1 {
				t.Fatalf("throttled node advertised full speed: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("load report never arrived over TCP")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := n2.Members.State(1); got != membership.Alive {
		t.Fatalf("report should have heartbeated node 1 alive, state = %v", got)
	}
}

// TestWholeStackMigrationOverTCP: a running job's entire stack migrates
// over real sockets, executes remotely, and its result flushes home —
// the same round trip the simulated-fabric tests cover.
func TestWholeStackMigrationOverTCP(t *testing.T) {
	c, cleanup := tcpPair(t,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	defer cleanup()
	home, dest := c.Nodes[1], c.Nodes[2]

	const seed, iters = 21, 400_000
	job, err := home.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := home.Mgr.MigrateSOD(job, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mm.StateBytes <= 0 {
		t.Errorf("migration reported no state bytes: %+v", mm)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.CruncherExpected(seed, iters); res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	// The segment must actually have run at the destination.
	if dest.VM.LiveInstructions() == 0 {
		t.Error("destination executed nothing")
	}
	// The measured transfer calibrated the link estimate (satellite:
	// observed latency replaces static hints).
	if _, ok := home.Mgr.WireLatency(2); !ok {
		t.Error("migration did not record a wire-latency observation")
	}
}

// TestMigrationToDeadTCPNodeRecoversLocally: the destination's transport
// is gone by the time the transfer starts; the captured state is rebuilt
// locally and the job completes — crash fallback over real sockets.
func TestMigrationToDeadTCPNodeRecoversLocally(t *testing.T) {
	c, cleanup := tcpPair(t,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	defer cleanup()
	home := c.Nodes[1]

	const seed, iters = 33, 400_000
	job, err := home.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	// Kill the destination process (its whole transport, listener and
	// all), then migrate into the void.
	c.Nodes[2].EP.(*netsim.TCPTransport).Close() //nolint:errcheck
	if _, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
	}); merr == nil {
		t.Fatal("migration to a closed transport should fail")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := workloads.CruncherExpected(seed, iters); res.I != want {
		t.Errorf("result after fallback = %d, want %d", res.I, want)
	}
}

// TestStealOverTCP: an idle TCP node pulls a job off a loaded peer with
// the steal protocol — the request, the grant probe and the whole-stack
// transfer all ride real sockets — and the stolen job's result flushes
// back to the victim correctly.
func TestStealOverTCP(t *testing.T) {
	c, cleanup := tcpPair(t,
		sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1, Slow: 8},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	defer cleanup()
	victim, thief := c.Nodes[1], c.Nodes[2]
	victim.Mgr.EnableSteal(policy.Steal{}, policy.HopGate{})

	const iters = 1_500_000
	seeds := []int64{41, 42}
	jobs := make([]*sodee.Job, len(seeds))
	for i, seed := range seeds {
		j, err := victim.Mgr.StartJob("main", value.Int(seed), value.Int(iters))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	won, err := thief.Mgr.RequestSteal(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Fatalf("steal over TCP denied: victim stats %+v", victim.Mgr.StealStats())
	}
	for i, j := range jobs {
		res, werr := j.Wait()
		if werr != nil {
			t.Fatalf("job %d: %v", i, werr)
		}
		if want := workloads.CruncherExpected(seeds[i], iters); res.I != want {
			t.Errorf("job %d = %d, want %d", i, res.I, want)
		}
	}
	if thief.VM.LiveInstructions() == 0 {
		t.Error("thief won a steal but executed nothing")
	}
	st := thief.Mgr.StealStats()
	if st.RequestsSent != 1 || st.Won != 1 {
		t.Errorf("thief counters: %+v", st)
	}
}

// blockAllGate parks every thread that calls it until released, and
// signals when `want` threads have arrived — unlike the single-shot gate,
// it holds a whole burst at a known execution point.
type blockAllGate struct {
	mu      sync.Mutex
	arrived int
	want    int
	ready   chan struct{}
	release chan struct{}
}

func newBlockAllGate(want int) *blockAllGate {
	return &blockAllGate{want: want, ready: make(chan struct{}), release: make(chan struct{})}
}

func (g *blockAllGate) native(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	g.mu.Lock()
	g.arrived++
	if g.arrived == g.want {
		close(g.ready)
	}
	g.mu.Unlock()
	<-g.release
	return value.Value{}, nil
}

// TestStealGrantRequesterDiesMidTransferTCP: the thief dies after the
// grant round trip but before the transfer. The victim's capture is
// already committed — the migration RPC fails against the dead socket,
// and the job must fall back to local execution on the victim.
func TestStealGrantRequesterDiesMidTransferTCP(t *testing.T) {
	prog := preprocess.MustPreprocess(buildWorkload(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, cleanup := tcpPairProg(t, prog,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	defer cleanup()
	victim, thief := c.Nodes[1], c.Nodes[2]
	g := newBlockAllGate(2)
	victim.VM.BindNative("test_gate", g.native)
	thief.VM.BindNative("test_gate", g.native)
	victim.Mgr.EnableSteal(policy.Steal{}, policy.HopGate{})

	jobs := make([]*sodee.Job, 2)
	for i := range jobs {
		d := makeData(t, victim)
		j, err := victim.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	<-g.ready // both jobs parked in the gate: runnable 2, margin satisfied

	// The steal request: the grant probe succeeds (the thief is alive),
	// then MigrateSOD blocks waiting for a safe point because both
	// threads sit in the gate.
	stealErr := make(chan error, 1)
	go func() {
		_, err := thief.Mgr.RequestSteal(1, 0)
		stealErr <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for victim.Mgr.StealStats().Granted == 0 {
		if time.Now().After(deadline) {
			// Say which step refused the steal: a returned RequestSteal
			// carries the denial or the failed call; a pending one means
			// the grant probe or the capture never finished.
			call := "RequestSteal still pending"
			select {
			case err := <-stealErr:
				call = fmt.Sprintf("RequestSteal returned %v", err)
			default:
			}
			t.Fatalf("victim never granted the steal: %s; victim stats %+v; thief stats %+v",
				call, victim.Mgr.StealStats(), thief.Mgr.StealStats())
		}
		time.Sleep(time.Millisecond)
	}

	// Kill the requester mid-transfer — after the grant, before the
	// capture completes — then let the victim's capture proceed.
	thief.EP.(*netsim.TCPTransport).Close() //nolint:errcheck
	close(g.release)

	for i, j := range jobs {
		res, werr := j.Wait()
		if werr != nil {
			t.Fatalf("job %d after fallback: %v", i, werr)
		}
		if res.I != expectedResult(testIters) {
			t.Errorf("job %d = %d, want %d", i, res.I, expectedResult(testIters))
		}
	}
	st := victim.Mgr.StealStats()
	if st.FailedTransfers != 1 {
		t.Errorf("victim should record the failed transfer: %+v", st)
	}
	// The thief's death surfaced to its own pending call too.
	<-stealErr
}
