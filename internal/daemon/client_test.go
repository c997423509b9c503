package daemon

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sodee"
	"repro/internal/wire"
	"repro/internal/workloads"
)

// Error-path coverage for the control client: dead daemons, daemons
// dying mid-operation, watch stream termination, and control-protocol
// version skew.

func bootOne(t *testing.T, id int) *Daemon {
	t.Helper()
	d, err := New(Config{ID: id, Policy: "threshold", Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d
}

// TestDialDeadDaemonFailsFast: dialing an address nothing listens on
// must fail within the configured window, not the default ~5s retry.
func TestDialDeadDaemonFailsFast(t *testing.T) {
	start := time.Now()
	_, err := DialTimeout("127.0.0.1:1", 300*time.Millisecond)
	if err == nil {
		t.Fatal("dial to a dead address should fail")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("dead dial took %v; the window was not honored", elapsed)
	}
}

// TestDaemonDiesMidWait: a daemon stopping with a client blocked in
// WaitContext must fail the wait promptly with a transport error — not
// leave it hanging and not fabricate a result. The same holds for a
// submitted job's Wait, which blocks on the stream its Submit opened.
func TestDaemonDiesMidWait(t *testing.T) {
	for _, tc := range []struct {
		name string
		wait func(*Client, *Job) (errMsg string, err error)
	}{
		// An opWait long-poll is in flight when the daemon dies.
		{"WaitContext", func(ctl *Client, job *Job) (string, error) {
			_, errMsg, err := ctl.WaitContext(context.Background(), job.ID())
			return errMsg, err
		}},
		// The held stream ends without a terminal; the fallback opWait
		// then meets a dead connection.
		{"JobWait", func(_ *Client, job *Job) (string, error) {
			_, errMsg, err := job.Wait(context.Background())
			return errMsg, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := bootOne(t, 1)
			ctl, err := Dial(d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer ctl.Close()
			job, err := ctl.Submit(context.Background(), "main", 5, 10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				errMsg string
				err    error
			}
			got := make(chan outcome, 1)
			go func() {
				errMsg, err := tc.wait(ctl, job)
				got <- outcome{errMsg, err}
			}()
			time.Sleep(100 * time.Millisecond)
			d.Stop()
			select {
			case o := <-got:
				if o.err == nil {
					t.Fatalf("wait across a daemon death returned success (errMsg=%q)", o.errMsg)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("wait never returned after the daemon died")
			}
		})
	}
}

// TestWatchStreamEndsOnCompletion: a watched job's stream carries
// started → completed and then closes on its own.
func TestWatchStreamEndsOnCompletion(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	job, err := ctl.Submit(context.Background(), "main", 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := ctl.Watch(context.Background(), job.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var events []sodee.JobEvent
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto closed
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatalf("stream never closed; got %+v", events)
		}
	}
closed:
	if len(events) < 2 {
		t.Fatalf("stream had %d events: %+v", len(events), events)
	}
	if events[0].Kind != sodee.EvStarted {
		t.Errorf("first event %v, want started", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != sodee.EvCompleted {
		t.Fatalf("last event %v, want completed", last.Kind)
	}
	if want := workloads.CruncherExpected(3, 20_000); last.Result != want {
		t.Errorf("completion result %d, want %d", last.Result, want)
	}
	// Watching an unknown job errors instead of streaming nothing.
	if _, _, err := ctl.Watch(context.Background(), 1<<40); err == nil {
		t.Error("watch of an unknown job should fail")
	}
}

// TestWatchStreamEndsOnDisconnect: a daemon dying mid-watch must close
// the stream rather than leave the consumer blocked forever.
func TestWatchStreamEndsOnDisconnect(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	job, err := ctl.Submit(context.Background(), "main", 4, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := ctl.Watch(context.Background(), job.ID())
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Drain the replayed start, then kill the daemon.
	select {
	case ev := <-ch:
		if ev.Kind != sodee.EvStarted {
			t.Fatalf("first event %v, want started", ev.Kind)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no replayed event")
	}
	d.Stop()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return // closed: the disconnect ended the stream
			}
			if ev.Kind == sodee.EvCompleted {
				t.Fatalf("stream claimed completion after daemon death: %+v", ev)
			}
		case <-deadline:
			t.Fatal("stream never closed after the daemon died")
		}
	}
}

// TestCancelThenRewatchSameJob: cancelling a watch and immediately
// re-watching must give the new stream the full story — the old
// stream's trailing opEventEnd (or stray events) carry its generation
// and must not close or pollute the successor.
func TestCancelThenRewatchSameJob(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	job, err := ctl.Submit(context.Background(), "main", 6, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	ch1, cancel1, err := ctl.Watch(context.Background(), job.ID())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch1:
	case <-time.After(30 * time.Second):
		t.Fatal("no replayed event on first watch")
	}
	cancel1()
	ch2, cancel2, err := ctl.Watch(context.Background(), job.ID())
	if err != nil {
		t.Fatalf("re-watch after cancel: %v", err)
	}
	defer cancel2()
	var events []sodee.JobEvent
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch2:
			if !ok {
				if len(events) < 2 || events[0].Kind != sodee.EvStarted ||
					events[len(events)-1].Kind != sodee.EvCompleted {
					t.Fatalf("re-watched stream malformed: %+v", events)
				}
				return
			}
			events = append(events, ev)
		case <-deadline:
			t.Fatalf("re-watched stream never terminated; got %+v", events)
		}
	}
}

// TestControlProtocolVersionSkew: both skew shapes fail with an error
// that names the protocol problem — a wrong version in the hello (a
// future one, and v4, the last before submits opened streams), and a
// pre-versioning join with no version at all.
func TestControlProtocolVersionSkew(t *testing.T) {
	d := bootOne(t, 1)
	tr, err := netsim.NewTCPTransport(-999_001, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close() //nolint:errcheck
	peer, err := tr.Connect(d.Addr())
	if err != nil {
		t.Fatal(err)
	}

	for _, v := range []uint64{ProtocolVersion + 41, 4, 5} {
		// v4 clients send submits without a stream generation, and v5
		// peers number their event frames; a v6 daemon must refuse both
		// at the hello, not misread their frames.
		hello := wire.NewWriter(4)
		hello.Byte(opHello)
		hello.Uvarint(v)
		if _, err := tr.Call(peer, netsim.KindControl, hello.Bytes()); err == nil ||
			!strings.Contains(err.Error(), "protocol mismatch") {
			t.Errorf("v%d hello: err = %v, want protocol mismatch", v, err)
		}
	}

	oldJoin := wire.NewWriter(32)
	oldJoin.Byte(opJoin)
	oldJoin.Varint(9)
	oldJoin.Blob([]byte("127.0.0.1:9"))
	// No trailing version: the shape a pre-versioning daemon sends.
	if _, err := tr.Call(peer, netsim.KindControl, oldJoin.Bytes()); err == nil ||
		!strings.Contains(err.Error(), "protocol mismatch") {
		t.Errorf("versionless join: err = %v, want protocol mismatch", err)
	}
}

// TestWatcherChurnReleasesGoroutines: a thousand watch streams opened by
// clients that vanish without unwatching must not accumulate daemon-side
// pump goroutines or ring buffers. Each abruptly closed connection fires
// the transport's peer-down hook, which cancels that peer's streams; this
// pins the goroutine count back to (near) the pre-churn baseline. Before
// the hook existed, every dead stream parked a goroutine on a send to a
// dead ring until the watched job terminated — and a WatchAll stream has
// no terminal at all, so those leaked until daemon shutdown.
func TestWatcherChurnReleasesGoroutines(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	// Touch WatchAll once so the daemon's event hub (a fixed goroutine
	// cost, alive until Stop) exists before the baseline is taken.
	_, cancelAll, err := ctl.WatchAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancelAll()
	time.Sleep(200 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// Phase one: a thousand WatchAll streams — live until cancelled, so
	// any missed cleanup is a permanent leak — abandoned by abruptly
	// closed connections. (The daemon is idle here on purpose: a spinning
	// interpreter job would fight the control plane for the CPU and tell
	// us nothing extra about stream cleanup.)
	const conns, perConn = 20, 50 // 1000 streams total
	for i := 0; i < conns; i++ {
		c, err := Dial(d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perConn; j++ {
			if _, _, err := c.WatchAll(context.Background()); err != nil {
				t.Fatalf("conn %d stream %d: %v", i, j, err)
			}
		}
		// Abrupt: no cancels, no unwatch frames. The daemon must notice
		// the dead connection and release all 50 streams itself.
		c.Close()
	}

	// Phase two: per-job streams on a job that is still running when the
	// connection dies, so the streams are mid-fanout, not replay-and-done.
	job, err := ctl.Submit(context.Background(), "main", 9, 40_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		if _, _, err := c.Watch(context.Background(), job.ID()); err != nil {
			t.Fatalf("live watch %d: %v", j, err)
		}
	}
	c.Close()
	if _, errMsg, err := job.Wait(context.Background()); err != nil || errMsg != "" {
		t.Fatalf("wait: %v %q", err, errMsg)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+10 {
			t.Logf("goroutines: baseline %d, settled at %d after the watcher churn", baseline, n)
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines never settled: baseline %d, still %d\n%s", baseline, n, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// streamCounts reports how many streams the client routes and holds, and
// how many the daemon serves.
func streamCounts(c *Client, d *Daemon) (routed, held, served int) {
	c.mu.Lock()
	routed, held = len(c.watches), len(c.held)
	c.mu.Unlock()
	d.watchMu.Lock()
	served = len(d.watches)
	d.watchMu.Unlock()
	return routed, held, served
}

// TestFailedSubmitHoldsNothing: a Submit the daemon refuses (unknown
// method) leaves no stream behind on either side.
func TestFailedSubmitHoldsNothing(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.Submit(context.Background(), "no_such_method", 1); err == nil {
		t.Fatal("submitting an unknown method should fail")
	}
	if routed, held, served := streamCounts(ctl, d); routed+held+served != 0 {
		t.Fatalf("failed submit left streams: client routes %d, holds %d; daemon serves %d", routed, held, served)
	}
}

// TestHeldStreamsBounded: a client that submits and never watches or
// waits holds at most maxHeld streams, across more jobs than the daemon
// retains. The oldest held streams give way; their jobs still answer
// Wait through opWait.
func TestHeldStreamsBounded(t *testing.T) {
	d, err := New(Config{ID: 1, Policy: "none", Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctx := context.Background()
	// As in the conformance retention test: enough jobs that the
	// daemon's finished FIFO and, after one eviction pass, its event bus
	// have both moved past the first.
	jobs := sodee.RetainedJobs + sodee.RetainedJobs/4 + 1
	var first *Job
	maxSeen := 0
	for i := 0; i < jobs; i++ {
		j, err := ctl.Submit(ctx, "main", int64(i%101), 10)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if first == nil {
			first = j
		}
		if _, held, _ := streamCounts(ctl, d); held > maxSeen {
			maxSeen = held
		}
	}
	if maxSeen > maxHeld {
		t.Fatalf("client held %d streams, cap %d", maxSeen, maxHeld)
	}
	if maxSeen < maxHeld {
		t.Fatalf("client held at most %d streams over %d submits; the cap %d was never reached", maxSeen, jobs, maxHeld)
	}
	// The first job's stream left the held set long ago, and the daemon
	// has since forgotten the job: a Watch of it asks the daemon, which
	// refuses. Its handle still answers Wait from the terminal event its
	// stream delivered before it was evicted.
	if _, _, err := ctl.Watch(ctx, first.ID()); err == nil {
		t.Error("Watch of an evicted, forgotten job should fail")
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if res, errMsg, err := first.Wait(wctx); err != nil || errMsg != "" || res != workloads.CruncherExpected(0, 10) {
		t.Fatalf("wait on the first job = %d, %q, %v; want %d", res, errMsg, err, workloads.CruncherExpected(0, 10))
	}
}

// TestAbandonedOpenIsUnwatched: a stream whose opening request the client
// abandoned (its ctx ended before the reply) must not go on streaming to
// nobody. The daemon handles the client's one-way unwatch concurrently
// with the opening request, so the unwatch can run before the open
// registers the stream; here that order is forced for a WatchAll, and the
// orphan must still drain once it carries an event.
func TestAbandonedOpenIsUnwatched(t *testing.T) {
	d := bootOne(t, 1)
	ctl, err := Dial(d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	ctl.mu.Lock()
	gen := ctl.newWatchLocked(true).gen
	ctl.mu.Unlock()
	gone, kill := context.WithCancel(context.Background())
	kill()
	ctl.abandon(gone, gen)

	unwatches := func() int64 {
		return d.Node().Obs.Snapshot().Counters[obs.Label("sod_control_requests_total", "op", "unwatch")]
	}
	deadline := time.Now().Add(10 * time.Second)
	for unwatches() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoning unwatch never reached the daemon")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let handleUnwatch finish
	req := wire.NewWriter(12)
	req.Byte(opWatchAll)
	req.Uvarint(gen)
	if _, err := ctl.call(context.Background(), req.Bytes()); err != nil {
		t.Fatal(err)
	}
	open := func() bool {
		d.watchMu.Lock()
		defer d.watchMu.Unlock()
		for key := range d.watches {
			if key.gen == gen {
				return true
			}
		}
		return false
	}
	if !open() {
		t.Fatal("the WatchAll did not open after its unwatch; the race was not reproduced")
	}
	if _, err := ctl.Run(context.Background(), "main", 3, 1_000); err != nil {
		t.Fatal(err)
	}
	for open() {
		if time.Now().After(deadline) {
			t.Fatal("the orphaned WatchAll stream is still registered at the daemon")
		}
		time.Sleep(time.Millisecond)
	}
}
