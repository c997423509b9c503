package sodee_test

import (
	"testing"
	"time"

	"repro/internal/sodee"
	"repro/internal/value"
)

func collectUntilClosed(t *testing.T, ch <-chan sodee.JobEvent, within time.Duration) []sodee.JobEvent {
	t.Helper()
	var out []sodee.JobEvent
	deadline := time.After(within)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("stream never closed; got %d events: %+v", len(out), out)
		}
	}
}

func TestBusReplayLiveAndTerminal(t *testing.T) {
	b := sodee.NewBus(1)
	b.Publish(sodee.JobEvent{Job: 7, Kind: sodee.EvStarted, From: 1, To: 1})
	b.Publish(sodee.JobEvent{Job: 7, Kind: sodee.EvMigrated, From: 1, To: 2, Hops: 1})
	if !b.Known(7) || b.Known(8) {
		t.Fatalf("Known: got %v/%v, want true/false", b.Known(7), b.Known(8))
	}

	ch, cancel, _ := b.Subscribe(7)
	defer cancel()
	// Replayed history arrives first, in publish order, with seqs.
	first, second := <-ch, <-ch
	if first.Kind != sodee.EvStarted || second.Kind != sodee.EvMigrated {
		t.Fatalf("replay order wrong: %v then %v", first.Kind, second.Kind)
	}
	if first.Seq == 0 || second.Seq <= first.Seq {
		t.Errorf("seqs not increasing: %d, %d", first.Seq, second.Seq)
	}
	// Then live events; the terminal closes the stream.
	b.Publish(sodee.JobEvent{Job: 7, Kind: sodee.EvCompleted, From: 1, To: 1, Result: 42})
	got := collectUntilClosed(t, ch, 5*time.Second)
	if len(got) != 1 || got[0].Kind != sodee.EvCompleted || got[0].Result != 42 {
		t.Fatalf("live events = %+v, want one completion", got)
	}
	// Events after the terminal are dropped.
	b.Publish(sodee.JobEvent{Job: 7, Kind: sodee.EvMigrated, From: 2, To: 3})

	// A fresh subscription replays the full (terminal-capped) history and
	// closes immediately.
	ch2, cancel2, _ := b.Subscribe(7)
	defer cancel2()
	replay := collectUntilClosed(t, ch2, 5*time.Second)
	if len(replay) != 3 || replay[2].Kind != sodee.EvCompleted {
		t.Fatalf("post-terminal replay = %+v", replay)
	}
}

func TestBusCancelIsIdempotent(t *testing.T) {
	b := sodee.NewBus(1)
	b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvStarted})
	ch, cancel, _ := b.Subscribe(1)
	<-ch // replayed start
	cancel()
	cancel() // second cancel must not panic
	if _, ok := <-ch; ok {
		t.Error("canceled subscription should be closed")
	}
	// Publishing after cancel must not panic or deliver.
	b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvCompleted})
}

// TestBusEvictsOldestEndedJobs: ended histories are shed oldest first,
// in passes that wait for a quarter of headroom above the bound, and the
// newest RetainedJobs always stay replayable.
func TestBusEvictsOldestEndedJobs(t *testing.T) {
	b := sodee.NewBus(1)
	const extra = 10
	total := sodee.RetainedJobs + sodee.RetainedJobs/4 + extra
	for i := 0; i < total; i++ {
		id := uint64(i + 1)
		b.Publish(sodee.JobEvent{Job: id, Kind: sodee.EvStarted})
		b.Publish(sodee.JobEvent{Job: id, Kind: sodee.EvCompleted})
	}
	for i := 0; i < extra; i++ {
		if b.Known(uint64(i + 1)) {
			t.Fatalf("ended job %d should have been evicted", i+1)
		}
	}
	for id := total - sodee.RetainedJobs + 1; id <= total; id++ {
		if !b.Known(uint64(id)) {
			t.Fatalf("job %d is among the newest %d but was evicted", id, sodee.RetainedJobs)
		}
	}
}

// TestBusPinsLiveJobs pins the retention contract a submit burst relies
// on: pressure above the tracked-job cap evicts ended streams only, so a
// job still running stays Known — its watcher may not have attached yet —
// however many younger jobs pile in behind it.
func TestBusPinsLiveJobs(t *testing.T) {
	b := sodee.NewBus(1)
	b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvStarted}) // live: no terminal
	for i := 0; i < 2*sodee.RetainedJobs; i++ {
		id := uint64(1000 + i)
		b.Publish(sodee.JobEvent{Job: id, Kind: sodee.EvStarted})
		b.Publish(sodee.JobEvent{Job: id, Kind: sodee.EvCompleted})
	}
	if !b.Known(1) {
		t.Fatal("live job evicted by ended-stream pressure")
	}
	// Only past the hard pinning ceiling (plus one pass's headroom) do
	// live streams go too.
	b2 := sodee.NewBus(1)
	const ceiling = 8*sodee.RetainedJobs + sodee.RetainedJobs/4
	for i := 0; i < ceiling+100; i++ {
		b2.Publish(sodee.JobEvent{Job: uint64(i + 1), Kind: sodee.EvStarted})
	}
	if b2.Known(1) {
		t.Error("oldest live job should fall to the pinning ceiling")
	}
	if !b2.Known(ceiling + 100) {
		t.Error("newest live job evicted")
	}
}

// TestBusShadowDischargeAndLateSubscriber pins the shadow lifecycle for
// the quiet-discharge path: a subscriber parked on the shadow before the
// origin completes sees one EvLagged marker plus the terminal; one that
// attaches after the discharge replays the retained terminal and closes —
// it must not park forever on a stream nothing will ever promote — and
// Known keeps answering true afterwards.
func TestBusShadowDischargeAndLateSubscriber(t *testing.T) {
	b := sodee.NewBus(2)
	b.RegisterShadow(9)
	if !b.Known(9) {
		t.Fatal("shadow not Known before any event")
	}
	early, cancelEarly, _ := b.Subscribe(9)
	defer cancelEarly()

	term := sodee.JobEvent{Job: 9, Kind: sodee.EvCompleted, Result: 7}
	b.DischargeShadow(9, term)

	got := collectUntilClosed(t, early, 5*time.Second)
	if len(got) != 2 || got[0].Kind != sodee.EvLagged || got[1].Kind != sodee.EvCompleted {
		t.Fatalf("parked subscriber saw %+v, want EvLagged then EvCompleted", got)
	}
	if got[1].Result != 7 || got[1].Origin != 2 {
		t.Errorf("terminal = %+v, want result 7 re-stamped to origin 2", got[1])
	}

	if !b.Known(9) {
		t.Error("discharged shadow no longer Known")
	}
	late, cancelLate, _ := b.Subscribe(9)
	defer cancelLate()
	replay := collectUntilClosed(t, late, 5*time.Second)
	if len(replay) != 1 || replay[0].Kind != sodee.EvCompleted || replay[0].Result != 7 {
		t.Fatalf("late subscriber replay = %+v, want just the terminal", replay)
	}

	// A second discharge is a no-op: the history keeps exactly one terminal.
	b.DischargeShadow(9, term)
	again, cancelAgain, _ := b.Subscribe(9)
	defer cancelAgain()
	if replay := collectUntilClosed(t, again, 5*time.Second); len(replay) != 1 {
		t.Fatalf("after duplicate discharge, replay = %+v, want one terminal", replay)
	}
}

// TestBusSlowWatcherCoalesces pins the backpressure contract for per-job
// subscriptions: a subscriber that never reads may lose intermediate
// events (replaced by a single EvLagged marker carrying the drop count),
// but the terminal event is always delivered, always last, exactly once.
func TestBusSlowWatcherCoalesces(t *testing.T) {
	b := sodee.NewBus(3)
	b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvStarted})
	ch, cancel, _ := b.Subscribe(1)
	defer cancel()

	// Publish far more non-terminal events than the subscriber ring holds,
	// without reading a single one.
	const burst = 4096
	for i := 0; i < burst; i++ {
		b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvMigrated, From: 1, To: 2})
	}
	b.Publish(sodee.JobEvent{Job: 1, Kind: sodee.EvCompleted, Result: 77})

	got := collectUntilClosed(t, ch, 30*time.Second)
	if len(got) >= burst {
		t.Fatalf("slow watcher saw %d events; coalescing never kicked in", len(got))
	}
	var lagged, terminals int
	var droppedTotal int64
	for i, ev := range got {
		if ev.Origin != 3 {
			t.Fatalf("event %d origin = %d, want bus origin 3", i, ev.Origin)
		}
		switch ev.Kind {
		case sodee.EvLagged:
			lagged++
			droppedTotal += ev.Result
		case sodee.EvCompleted:
			terminals++
		}
	}
	if lagged == 0 {
		t.Error("no EvLagged marker despite overflow")
	}
	if droppedTotal == 0 {
		t.Error("EvLagged markers carry no drop count")
	}
	if terminals != 1 {
		t.Fatalf("terminal delivered %d times, want exactly once", terminals)
	}
	if last := got[len(got)-1]; last.Kind != sodee.EvCompleted || last.Result != 77 {
		t.Fatalf("stream must end with the terminal, ended with %+v", last)
	}
}

// TestBusFirehoseEviction pins the other half of the contract: a
// firehose may coalesce non-terminal events forever, but once its ring
// holds nothing except job *outcomes* and the consumer still is not
// draining, it is evicted (channel closed) rather than silently losing a
// completion or stalling the bus.
func TestBusFirehoseEviction(t *testing.T) {
	b := sodee.NewBus(1)
	ch, cancel := b.SubscribeAll()
	defer cancel()

	// Never read. Flood with terminal events: each is undroppable, so the
	// ring fills with outcomes and the subscriber must be evicted.
	for i := 0; i < 10_000; i++ {
		b.Publish(sodee.JobEvent{Job: uint64(i + 1), Kind: sodee.EvCompleted, Result: int64(i)})
	}

	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // evicted: channel closed
			}
		case <-deadline:
			t.Fatal("unread firehose was never evicted")
		}
	}
}

// TestBusFirehoseKeepsUpSeesEverything is the positive complement: a
// firehose that drains promptly sees every published event, tagged with
// the bus origin, and cancel ends the stream.
func TestBusFirehoseKeepsUpSeesEverything(t *testing.T) {
	b := sodee.NewBus(2)
	ch, cancel := b.SubscribeAll()

	const n = 200
	done := make(chan []sodee.JobEvent)
	go func() {
		var out []sodee.JobEvent
		for ev := range ch {
			out = append(out, ev)
			if len(out) == n {
				break
			}
		}
		done <- out
	}()
	for i := 0; i < n; i++ {
		b.Publish(sodee.JobEvent{Job: uint64(i + 1), Kind: sodee.EvStarted})
	}
	select {
	case got := <-done:
		for i, ev := range got {
			if ev.Job != uint64(i+1) || ev.Origin != 2 || ev.Kind != sodee.EvStarted {
				t.Fatalf("event %d = %+v", i, ev)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("firehose never delivered all events")
	}
	cancel()
	for {
		if _, ok := <-ch; !ok {
			return
		}
	}
}

func TestJobEventCodecRoundTrip(t *testing.T) {
	in := sodee.JobEvent{
		Job: 9, Origin: 5, Seq: 4, Time: time.Unix(0, 1_234_567_890),
		Kind: sodee.EvMigrated, From: 3, To: -7,
		Reason: sodee.ReasonStolen, Hops: 2,
		Result: -99, Err: "boom",
	}
	out, err := sodee.DecodeJobEvent(sodee.EncodeJobEvent(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
	if _, err := sodee.DecodeJobEvent([]byte{1, 2}); err == nil {
		t.Error("truncated event should fail to decode")
	}
}

// TestManualMigrationEventStream checks the origin-side story of one
// hand-driven whole-stack migration: started → migrated (manual, hop 1)
// → result-flushed home → completed with the right result.
func TestManualMigrationEventStream(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)

	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := home.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
		})
	})
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Fatalf("result = %d, want %d", res.I, expectedResult(testIters))
	}

	events := collectUntilClosed(t, ch, 30*time.Second)
	kinds := make([]sodee.EventKind, len(events))
	for i, ev := range events {
		kinds[i] = ev.Kind
	}
	want := []sodee.EventKind{sodee.EvStarted, sodee.EvMigrated, sodee.EvResultFlushed, sodee.EvCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	mig := events[1]
	if mig.From != 1 || mig.To != 2 || mig.Hops != 1 || mig.Reason != sodee.ReasonManual {
		t.Errorf("migration event wrong: %+v", mig)
	}
	fl := events[2]
	if fl.From != 2 || fl.To != 1 {
		t.Errorf("flush event wrong: %+v", fl)
	}
	done := events[3]
	if done.Result != expectedResult(testIters) || done.Err != "" {
		t.Errorf("completion event wrong: %+v", done)
	}
}

// TestFailedMigrationEventStream aims a migration at a crashed node and
// checks the watcher sees the whole truth: the announced hop, the
// transfer failure with local recovery, and a clean completion on the
// source node.
func TestFailedMigrationEventStream(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2}, false)
	home := c.Nodes[1]
	d := makeData(t, home)
	c.Net.SetNodeDown(2, true)

	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(testIters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := home.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	<-g.reached
	mig := make(chan error, 1)
	go func() {
		_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
		})
		mig <- merr
	}()
	time.Sleep(2 * time.Millisecond)
	close(g.release)
	if merr := <-mig; merr == nil {
		t.Fatal("migration to a downed node should fail")
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(testIters) {
		t.Fatalf("result = %d, want %d", res.I, expectedResult(testIters))
	}

	events := collectUntilClosed(t, ch, 30*time.Second)
	kinds := make([]sodee.EventKind, len(events))
	for i, ev := range events {
		kinds[i] = ev.Kind
	}
	want := []sodee.EventKind{sodee.EvStarted, sodee.EvMigrated, sodee.EvMigrationFailed, sodee.EvCompleted}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event kinds = %v, want %v", kinds, want)
		}
	}
	if fail := events[2]; fail.From != 1 || fail.To != 2 {
		t.Errorf("failure event wrong: %+v", fail)
	}
	if done := events[3]; done.From != 1 || done.Err != "" {
		t.Errorf("completion event wrong: %+v", done)
	}
}

// TestMultiHopEventsForwardedToOrigin drives a job through two manual
// hops (1 → 2 → 3) and checks that the second hop — initiated by an
// intermediate node acting on a migrated-in job — still lands in the
// origin's event stream, forwarded over the wire, with the accumulated
// hop count.
func TestMultiHopEventsForwardedToOrigin(t *testing.T) {
	c, g := sodCluster(t, []int{1, 2, 3}, true)
	home := c.Nodes[1]
	d := makeData(t, home)

	const iters = 3_000_000 // long enough to re-migrate mid-flight
	job, err := home.Mgr.StartJob("main", value.RefVal(d), value.Int(iters))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, _ := home.Mgr.Events().Subscribe(job.ID)
	defer cancel()

	migrateWhileRunning(t, g, func() (*sodee.MigrationMetrics, error) {
		return home.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: sodee.WholeStack, Dest: 2, Flow: sodee.FlowReturnHome,
		})
	})

	// The migrated-in job surfaces as a remote wrapper at node 2 once its
	// restoration finishes; hop it onward to node 3.
	var hosted *sodee.Job
	deadline := time.Now().Add(20 * time.Second)
	for hosted == nil {
		for _, rj := range c.Nodes[2].Mgr.RunningJobs() {
			if rj.Remote() {
				hosted = rj
			}
		}
		if hosted == nil {
			if time.Now().After(deadline) {
				t.Fatal("node 2 never exposed the migrated-in job")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := c.Nodes[2].Mgr.MigrateSOD(hosted, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: 3, Flow: sodee.FlowReturnHome,
	}); err != nil {
		t.Fatalf("second hop: %v", err)
	}

	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != expectedResult(iters) {
		t.Fatalf("result = %d, want %d", res.I, expectedResult(iters))
	}

	events := collectUntilClosed(t, ch, 30*time.Second)
	var hops []sodee.JobEvent
	for _, ev := range events {
		if ev.Kind == sodee.EvMigrated {
			hops = append(hops, ev)
		}
	}
	if len(hops) != 2 {
		t.Fatalf("migration events = %+v, want 2 hops", hops)
	}
	if hops[0].From != 1 || hops[0].To != 2 || hops[0].Hops != 1 {
		t.Errorf("first hop wrong: %+v", hops[0])
	}
	if hops[1].From != 2 || hops[1].To != 3 || hops[1].Hops != 2 {
		t.Errorf("forwarded second hop wrong: %+v", hops[1])
	}
	last := events[len(events)-1]
	if last.Kind != sodee.EvCompleted || last.Result != expectedResult(iters) {
		t.Errorf("terminal event wrong: %+v", last)
	}
}
