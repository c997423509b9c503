package sod_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/sodee"
	"repro/internal/workloads"
	"repro/sod"
)

// The conformance suite: the same scenarios run against both Client
// implementations — the in-process cluster (Cluster.Client) and a real
// 3-node TCP daemon cluster (sod.Dial) — so the two surfaces cannot
// drift. Every fixture is the canonical elastic topology: a weak
// one-core node 1 taking submissions, two strong peers, the threshold
// push policy at a 2ms tick.

const (
	// confIters sizes the watched burst: heavy enough that the balancer
	// reliably spills it even on a starved single-CPU host (the same
	// reasoning as the daemon steal tests), light enough to finish in
	// seconds.
	confIters   = 600_000
	confTimeout = 60 * time.Second
)

type confFixture struct {
	name   string
	client sod.Client
	// submitNode is where jobs land (node 1 in both fixtures).
	submitNode int
}

// waitConverged polls through the client until nodes 1..3 are alive in
// the submit node's view — transport-agnostic, so both fixtures use it.
func waitConverged(t *testing.T, cl sod.Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for {
		members, err := cl.Members(ctx)
		if err != nil {
			t.Fatal(err)
		}
		alive := 0
		for _, m := range members {
			if m.Node >= 1 && m.Node <= 3 && m.State.String() == "alive" {
				alive++
			}
		}
		if alive == 3 {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("membership never converged: %+v", members)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// withClients runs fn against both implementations.
func withClients(t *testing.T, fn func(t *testing.T, f confFixture)) {
	t.Run("inprocess", func(t *testing.T) {
		prog, err := daemon.BuildWorkload("cruncher")
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := sod.NewCluster(prog, sod.Gigabit,
			sod.Node{ID: 1, Cores: 1, Slow: 16},
			sod.Node{ID: 2}, sod.Node{ID: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{1, 2, 3} {
			workloads.BindCommon(cluster.On(id).VM())
		}
		bal := cluster.AutoBalance(sod.ThresholdPolicy(0, 0),
			sod.BalanceOptions{Interval: 2 * time.Millisecond})
		t.Cleanup(bal.Stop)
		fn(t, confFixture{name: "inprocess", client: cluster.Client(), submitNode: 1})
	})

	t.Run("daemon", func(t *testing.T) {
		mk := func(id, cores, slow int) *daemon.Daemon {
			d, err := daemon.New(daemon.Config{
				ID: id, Cores: cores, Slow: slow,
				Policy: "threshold", Interval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("boot daemon %d: %v", id, err)
			}
			t.Cleanup(d.Stop)
			return d
		}
		d1 := mk(1, 1, 16)
		d2 := mk(2, 0, 0)
		d3 := mk(3, 0, 0)
		if err := d2.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := d3.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		cl, err := sod.Dial(d1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() }) //nolint:errcheck
		waitConverged(t, cl)
		fn(t, confFixture{name: "daemon", client: cl, submitNode: 1})
	})
}

// withChainClients runs fn against both implementations with the chain
// planner armed: a weak submit node, two idle strong peers, and a
// chain-only balancer (nothing pushes; the planner owns every chained
// job). The workload is the three-stage workflow pipeline.
func withChainClients(t *testing.T, fn func(t *testing.T, f confFixture)) {
	t.Run("inprocess", func(t *testing.T) {
		prog, err := daemon.BuildWorkload("workflow")
		if err != nil {
			t.Fatal(err)
		}
		cluster, err := sod.NewCluster(prog, sod.Gigabit,
			sod.Node{ID: 1, Cores: 1, Slow: 16},
			sod.Node{ID: 2}, sod.Node{ID: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{1, 2, 3} {
			workloads.BindCommon(cluster.On(id).VM())
		}
		bal := cluster.AutoBalance(sod.NeverPolicy(),
			sod.BalanceOptions{Interval: 2 * time.Millisecond, Chain: true})
		t.Cleanup(bal.Stop)
		fn(t, confFixture{name: "inprocess", client: cluster.Client(), submitNode: 1})
	})

	t.Run("daemon", func(t *testing.T) {
		mk := func(id, cores, slow int) *daemon.Daemon {
			d, err := daemon.New(daemon.Config{
				ID: id, Cores: cores, Slow: slow, Workload: "workflow",
				Policy: "none", Chain: true, Interval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("boot daemon %d: %v", id, err)
			}
			t.Cleanup(d.Stop)
			return d
		}
		d1 := mk(1, 1, 16)
		d2 := mk(2, 0, 0)
		d3 := mk(3, 0, 0)
		if err := d2.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := d3.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		cl, err := sod.Dial(d1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() }) //nolint:errcheck
		waitConverged(t, cl)
		fn(t, confFixture{name: "daemon", client: cl, submitNode: 1})
	})
}

func TestConformanceSubmitAndWait(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		seeds := []int64{11, 12, 13}
		handles := make([]sod.JobHandle, len(seeds))
		for i, s := range seeds {
			h, err := f.client.Submit(ctx, "main", sod.Int(s), sod.Int(20_000))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			if h.ID() == 0 {
				t.Fatal("job handle has no id")
			}
			handles[i] = h
		}
		for i, h := range handles {
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
			if want := workloads.CruncherExpected(seeds[i], 20_000); res.I != want {
				t.Errorf("job %d: result %d, want %d", i, res.I, want)
			}
			if !h.Done() {
				t.Errorf("job %d not Done after Wait", i)
			}
		}
	})
}

func TestConformanceWaitHonorsContext(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		bg, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		h, err := f.client.Submit(bg, "main", sod.Int(9), sod.Int(2_000_000))
		if err != nil {
			t.Fatal(err)
		}
		short, scancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer scancel()
		if _, err := h.Wait(short); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("short wait: err = %v, want DeadlineExceeded", err)
		}
		// The abandoned wait must not have disturbed the job.
		res, err := h.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		if want := workloads.CruncherExpected(9, 2_000_000); res.I != want {
			t.Errorf("result %d, want %d", res.I, want)
		}
	})
}

func TestConformanceJobLookup(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		h, err := f.client.Submit(ctx, "main", sod.Int(5), sod.Int(10_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		// A completed job stays queryable.
		again, err := f.client.Job(h.ID())
		if err != nil {
			t.Fatalf("lookup of completed job: %v", err)
		}
		res, err := again.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := workloads.CruncherExpected(5, 10_000); res.I != want {
			t.Errorf("re-looked-up result %d, want %d", res.I, want)
		}
		if _, err := f.client.Job(1 << 40); err == nil {
			t.Error("lookup of an unknown job should error")
		}
	})
}

// TestConformanceRetentionBound: both surfaces answer Job, Wait and Watch
// for a finished job until sodee.RetainedJobs younger jobs have finished
// on the same node, and then all three forget it together — the daemon
// keeps no retention of its own, and the in-process cluster does not keep
// every job forever.
func TestConformanceRetentionBound(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		const iters = 10
		run := func(seed int64) (uint64, error) {
			h, err := f.client.Submit(ctx, "main", sod.Int(seed), sod.Int(iters))
			if err != nil {
				return 0, err
			}
			if _, err := h.Wait(ctx); err != nil {
				return 0, fmt.Errorf("wait %d: %w", h.ID(), err)
			}
			return h.ID(), nil
		}
		retained := func(id uint64, seed int64) {
			t.Helper()
			want := workloads.CruncherExpected(seed, iters)
			h, err := f.client.Job(id)
			if err != nil {
				t.Fatalf("Job(%d) of a retained job: %v", id, err)
			}
			if res, err := h.Wait(ctx); err != nil || res.I != want {
				t.Fatalf("Wait(%d) = %v, %v; want %d", id, res.I, err, want)
			}
			ch, err := f.client.Watch(ctx, id)
			if err != nil {
				t.Fatalf("Watch(%d) of a retained job: %v", id, err)
			}
			var last sod.JobEvent
			for ev := range ch {
				last = ev
			}
			if last.Kind != sod.JobCompleted || last.Result != want {
				t.Fatalf("Watch(%d) ended with %+v, want completion with %d", id, last, want)
			}
		}
		evicted := func(id uint64) {
			t.Helper()
			if _, err := f.client.Job(id); err == nil {
				t.Errorf("Job(%d) answered past the retention bound", id)
			}
			if _, err := f.client.Watch(ctx, id); err == nil {
				t.Errorf("Watch(%d) answered past the retention bound", id)
			}
		}

		old, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		retained(old, 1)

		// Enough younger jobs that the finished FIFO and, after at least
		// one eviction pass, the bus's histories have both moved past old.
		filler := sodee.RetainedJobs + sodee.RetainedJobs/4 + 1
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < filler; i += workers {
					if _, err := run(int64(i % 101)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		recent, err := run(2)
		if err != nil {
			t.Fatal(err)
		}
		retained(recent, 2)
		evicted(old)
	})
}

func TestConformanceMembers(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		// Membership converges asynchronously on the daemon fixture.
		deadline := time.Now().Add(20 * time.Second)
		for {
			members, err := f.client.Members(ctx)
			if err != nil {
				t.Fatal(err)
			}
			seen := make(map[int]sod.Member, len(members))
			for _, m := range members {
				seen[m.Node] = m
			}
			ok := len(seen) >= 3
			for _, id := range []int{1, 2, 3} {
				m, present := seen[id]
				if !present || m.State.String() != "alive" {
					ok = false
				}
			}
			if ok {
				if !seen[f.submitNode].Self {
					t.Errorf("node %d not marked Self: %+v", f.submitNode, members)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("membership never converged: %+v", members)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestConformanceStats(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := f.client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Balance.Ticks > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("balancer never ticked")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestConformanceWatchLifecycle is the headline scenario: a burst lands
// on the weak node, the balancer spills it, and a watcher of each job
// sees the whole story — started first, completed last with the right
// result, migrations in between with direction, reason and hop count.
func TestConformanceWatchLifecycle(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()

		const njobs = 5
		handles := make([]sod.JobHandle, njobs)
		streams := make([]<-chan sod.JobEvent, njobs)
		seeds := make([]int64, njobs)
		for i := range handles {
			seeds[i] = int64(40 + i)
			h, err := f.client.Submit(ctx, "main", sod.Int(seeds[i]), sod.Int(confIters))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			handles[i] = h
			ch, err := f.client.Watch(ctx, h.ID())
			if err != nil {
				t.Fatalf("watch %d: %v", i, err)
			}
			streams[i] = ch
		}

		migrated := 0
		for i, ch := range streams {
			var events []sod.JobEvent
			for ev := range ch {
				events = append(events, ev)
			}
			if len(events) < 2 {
				t.Fatalf("job %d: stream had %d events, want at least started+completed", i, len(events))
			}
			first, last := events[0], events[len(events)-1]
			if first.Kind != sod.JobStarted || first.From != f.submitNode {
				t.Errorf("job %d: first event %+v, want started on node %d", i, first, f.submitNode)
			}
			if last.Kind != sod.JobCompleted || last.Err != "" {
				t.Errorf("job %d: last event %+v, want clean completion", i, last)
			}
			if want := workloads.CruncherExpected(seeds[i], confIters); last.Result != want {
				t.Errorf("job %d: completed with %d, want %d", i, last.Result, want)
			}
			for _, ev := range events[1 : len(events)-1] {
				switch ev.Kind {
				case sod.JobMigrated:
					migrated++
					if ev.From == ev.To || ev.Hops < 1 {
						t.Errorf("job %d: malformed migration event %+v", i, ev)
					}
					if ev.Reason == sod.MigrateManual {
						t.Errorf("job %d: balancer migration labeled manual: %+v", i, ev)
					}
				case sod.JobResultFlushed:
					if ev.To != f.submitNode {
						t.Errorf("job %d: result flushed to node %d, want origin %d", i, ev.To, f.submitNode)
					}
				case sod.JobMigrationFailed: // a crashed-transfer fallback is legal mid-stream
				default:
					t.Errorf("job %d: unexpected mid-stream event %+v", i, ev)
				}
			}
		}
		if migrated == 0 {
			t.Error("no watched job ever migrated; the burst ran serially")
		}

		// The results themselves are still intact after watching.
		for i, h := range handles {
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := workloads.CruncherExpected(seeds[i], confIters); res.I != want {
				t.Errorf("job %d: result %d, want %d", i, res.I, want)
			}
		}
	})
}

func TestConformanceWatchReplayAndUnknown(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		if _, err := f.client.Watch(ctx, 1<<40); err == nil {
			t.Error("watching an unknown job should error")
		}
		h, err := f.client.Submit(ctx, "main", sod.Int(3), sod.Int(10_000))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		// Watching after completion replays the retained history and
		// terminates immediately.
		ch, err := f.client.Watch(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		var events []sod.JobEvent
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					goto done
				}
				events = append(events, ev)
			case <-timeout:
				t.Fatal("replayed stream never terminated")
			}
		}
	done:
		if len(events) < 2 || events[0].Kind != sod.JobStarted ||
			events[len(events)-1].Kind != sod.JobCompleted {
			t.Fatalf("replayed stream malformed: %+v", events)
		}
	})
}

// TestConformanceChainedSubmitAndEvents: chain-driven jobs behave
// identically through both clients — SubmitChain places the stack as a
// planner-driven forward pipeline, the result comes back right, and the
// watch stream narrates the chain the same way on both surfaces:
// started first, completed last, a planted link for every residual
// segment, a chained-reason migration for the executing one, and a
// forward for every link control reached.
func TestConformanceChainedSubmitAndEvents(t *testing.T) {
	withChainClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()

		const chainIters = 300_000
		seeds := []int64{61, 62}
		handles := make([]sod.JobHandle, len(seeds))
		streams := make([]<-chan sod.JobEvent, len(seeds))
		for i, s := range seeds {
			h, err := f.client.SubmitChain(ctx, "main", sod.Int(s), sod.Int(chainIters))
			if err != nil {
				t.Fatalf("submit chained %d: %v", i, err)
			}
			handles[i] = h
			ch, err := f.client.Watch(ctx, h.ID())
			if err != nil {
				t.Fatalf("watch %d: %v", i, err)
			}
			streams[i] = ch
		}

		chains := 0
		for i, ch := range streams {
			var events []sod.JobEvent
			for ev := range ch {
				events = append(events, ev)
			}
			if len(events) < 2 {
				t.Fatalf("job %d: stream had %d events", i, len(events))
			}
			first, last := events[0], events[len(events)-1]
			if first.Kind != sod.JobStarted || first.From != f.submitNode {
				t.Errorf("job %d: first event %+v, want started on node %d", i, first, f.submitNode)
			}
			if last.Kind != sod.JobCompleted || last.Err != "" {
				t.Errorf("job %d: last event %+v, want clean completion", i, last)
			}
			if want := workloads.WorkflowExpected(seeds[i], chainIters); last.Result != want {
				t.Errorf("job %d: completed with %d, want %d", i, last.Result, want)
			}
			planted, forwarded := 0, 0
			for _, ev := range events {
				switch ev.Kind {
				case sod.JobSegmentPlanted:
					planted++
					if ev.SegOf < 2 || ev.Seg < 1 || ev.Seg >= ev.SegOf {
						t.Errorf("job %d: malformed planted event %+v", i, ev)
					}
				case sod.JobSegmentForwarded:
					forwarded++
				case sod.JobMigrated:
					if ev.Reason == sod.MigrateChained {
						chains++
						if ev.Seg != 0 || ev.SegOf < 2 {
							t.Errorf("job %d: chained migration without plan position %+v", i, ev)
						}
					}
				}
			}
			if planted > 0 && forwarded == 0 {
				t.Errorf("job %d: links planted but control never forwarded: %+v", i, events)
			}
		}
		if chains == 0 {
			t.Error("no job was ever chain-placed; the planner never fired")
		}

		// Results remain intact after watching, as everywhere else.
		for i, h := range handles {
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if want := workloads.WorkflowExpected(seeds[i], chainIters); res.I != want {
				t.Errorf("job %d: result %d, want %d", i, res.I, want)
			}
		}
	})
}

// TestConformanceConcurrentWatchesOfOneJob: both implementations must
// serve any number of simultaneous watchers of the same job the full
// stream — the drift this suite exists to prevent. Over a daemon the
// first Watch takes the stream the Submit opened and the others ask the
// daemon for their own, so both kinds must carry the whole story.
func TestConformanceConcurrentWatchesOfOneJob(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		h, err := f.client.Submit(ctx, "main", sod.Int(8), sod.Int(100_000))
		if err != nil {
			t.Fatal(err)
		}
		const watchers = 3
		streams := make([]<-chan sod.JobEvent, watchers)
		for i := range streams {
			ch, err := f.client.Watch(ctx, h.ID())
			if err != nil {
				t.Fatalf("watcher %d: %v", i, err)
			}
			streams[i] = ch
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		for i, ch := range streams {
			var events []sod.JobEvent
			deadline := time.After(30 * time.Second)
		drain:
			for {
				select {
				case ev, ok := <-ch:
					if !ok {
						break drain
					}
					events = append(events, ev)
				case <-deadline:
					t.Fatalf("watcher %d never terminated; got %+v", i, events)
				}
			}
			if len(events) < 2 || events[0].Kind != sod.JobStarted ||
				events[len(events)-1].Kind != sod.JobCompleted {
				t.Errorf("watcher %d: malformed stream %+v", i, events)
			}
		}
	})
}

// TestConformanceWatchAfterFinish: a Watch opened by the submitting
// client after its job finished replays the whole story — started first,
// completed last — with exactly one of each. Over a daemon this Watch
// takes the stream the Submit opened, which had already run to its
// terminal with nobody attached.
func TestConformanceWatchAfterFinish(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		h, err := f.client.Submit(ctx, "main", sod.Int(14), sod.Int(10_000))
		if err != nil {
			t.Fatal(err)
		}
		for !h.Done() {
			if ctx.Err() != nil {
				t.Fatal("job never finished")
			}
			time.Sleep(time.Millisecond)
		}
		ch, err := f.client.Watch(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		var events []sod.JobEvent
		for ev := range ch {
			events = append(events, ev)
		}
		if ctx.Err() != nil {
			t.Fatal("replayed stream never ended")
		}
		started, completed := 0, 0
		for _, ev := range events {
			switch ev.Kind {
			case sod.JobStarted:
				started++
			case sod.JobCompleted:
				completed++
			}
		}
		if started != 1 || completed != 1 || events[0].Kind != sod.JobStarted ||
			events[len(events)-1].Kind != sod.JobCompleted {
			t.Fatalf("replayed stream %+v: want one started first and one completed last", events)
		}
		want := workloads.CruncherExpected(14, 10_000)
		if got := events[len(events)-1].Result; got != want {
			t.Errorf("terminal carried %d, want %d", got, want)
		}
		if res, err := h.Wait(ctx); err != nil || res.I != want {
			t.Errorf("Wait = %v, %v; want %d", res.I, err, want)
		}
	})
}

// TestConformanceWatchEndedContext: Watch and WatchAll called with a
// context that has already ended fail with the context's error on both
// surfaces — over a daemon whether or not the submitting client holds
// the job's stream — and a later Watch of the job still gets its whole
// story.
func TestConformanceWatchEndedContext(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		h, err := f.client.Submit(ctx, "main", sod.Int(17), sod.Int(10_000))
		if err != nil {
			t.Fatal(err)
		}
		dead, kill := context.WithCancel(ctx)
		kill()
		// The first Watch would take the held stream; the second would
		// send opWatch.
		for i := 0; i < 2; i++ {
			if ch, err := f.client.Watch(dead, h.ID()); !errors.Is(err, context.Canceled) || ch != nil {
				t.Fatalf("Watch %d with an ended ctx = %v, %v; want context.Canceled", i, ch, err)
			}
		}
		if ch, err := f.client.WatchAll(dead); !errors.Is(err, context.Canceled) || ch != nil {
			t.Fatalf("WatchAll with an ended ctx = %v, %v; want context.Canceled", ch, err)
		}
		ch, err := f.client.Watch(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		var events []sod.JobEvent
		for ev := range ch {
			events = append(events, ev)
		}
		want := workloads.CruncherExpected(17, 10_000)
		if len(events) < 2 || events[0].Kind != sod.JobStarted ||
			events[len(events)-1].Kind != sod.JobCompleted || events[len(events)-1].Result != want {
			t.Fatalf("stream %+v: want started first and completion with %d last", events, want)
		}
		if res, err := h.Wait(ctx); err != nil || res.I != want {
			t.Errorf("Wait = %v, %v; want %d", res.I, err, want)
		}
	})
}

// TestConformanceWaitAfterCancelledWatch: cancelling the submitting
// client's Watch before the job's terminal leaves Wait intact. Over a
// daemon the cancelled Watch had taken the Submit's stream, so Wait
// cannot resolve from it and must ask the daemon instead.
func TestConformanceWaitAfterCancelledWatch(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		const iters = 2_000_000
		h, err := f.client.Submit(ctx, "main", sod.Int(15), sod.Int(iters))
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithCancel(ctx)
		ch, err := f.client.Watch(wctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		if ev := <-ch; ev.Kind != sod.JobStarted {
			t.Fatalf("first event %+v, want started", ev)
		}
		wcancel()
		for ev := range ch {
			if ev.Terminal() {
				t.Logf("the job finished before the cancel landed")
			}
		}
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := workloads.CruncherExpected(15, iters); res.I != want {
			t.Errorf("result %d, want %d", res.I, want)
		}
	})
}

// TestConformanceFailedSubmit: a Submit naming an unknown method fails
// on both surfaces, and the client carries on: the next job submits,
// streams and completes normally.
func TestConformanceFailedSubmit(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		if _, err := f.client.Submit(ctx, "no_such_method", sod.Int(1)); err == nil {
			t.Fatal("submitting an unknown method should fail")
		}
		h, err := f.client.Submit(ctx, "main", sod.Int(16), sod.Int(10_000))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := f.client.Watch(ctx, h.ID())
		if err != nil {
			t.Fatal(err)
		}
		var last sod.JobEvent
		for ev := range ch {
			last = ev
		}
		want := workloads.CruncherExpected(16, 10_000)
		if last.Kind != sod.JobCompleted || last.Result != want {
			t.Fatalf("stream ended with %+v, want completion with %d", last, want)
		}
		if res, err := h.Wait(ctx); err != nil || res.I != want {
			t.Errorf("Wait = %v, %v; want %d", res.I, err, want)
		}
	})
}

// TestConformanceWatchAll: one cluster-wide stream, opened before the
// burst, sees every submitted job's whole story on both surfaces —
// exactly one terminal per job, with the right result, stamped with the
// origin node — and closes when its context does. Events route to the
// origin node's bus exactly once, so job id alone keys the accounting.
func TestConformanceWatchAll(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		all, err := f.client.WatchAll(wctx)
		if err != nil {
			t.Fatal(err)
		}

		const njobs = 4
		seeds := make(map[uint64]int64, njobs)
		for i := 0; i < njobs; i++ {
			s := int64(70 + i)
			h, err := f.client.Submit(ctx, "main", sod.Int(s), sod.Int(20_000))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			seeds[h.ID()] = s
		}

		terminals := make(map[uint64]int, njobs)
		results := make(map[uint64]int64, njobs)
		deadline := time.After(confTimeout)
		for done := 0; done < njobs; {
			select {
			case ev, ok := <-all:
				if !ok {
					t.Fatalf("cluster stream closed early; terminals so far: %v", terminals)
				}
				if ev.Origin < 1 || ev.Origin > 3 {
					t.Errorf("event without a cluster origin: %+v", ev)
				}
				if _, ours := seeds[ev.Job]; !ours || ev.Kind != sod.JobCompleted {
					continue
				}
				terminals[ev.Job]++
				if terminals[ev.Job] == 1 {
					done++
				}
				results[ev.Job] = ev.Result
			case <-deadline:
				t.Fatalf("cluster stream delivered %d/%d terminals before timing out", len(terminals), njobs)
			}
		}
		for id, s := range seeds {
			if n := terminals[id]; n != 1 {
				t.Errorf("job %d: %d terminal events, want exactly 1", id, n)
			}
			if want := workloads.CruncherExpected(s, 20_000); results[id] != want {
				t.Errorf("job %d: terminal result %d, want %d", id, results[id], want)
			}
		}

		// Cancelling the watch context ends the stream.
		wcancel()
		closeDeadline := time.After(10 * time.Second)
		for {
			select {
			case _, ok := <-all:
				if !ok {
					return
				}
			case <-closeDeadline:
				t.Fatal("cluster stream never closed after context cancellation")
			}
		}
	})
}

// TestConformanceSlowWatcherBackpressure: a WatchAll consumer that stops
// reading must never stall the cluster. Both surfaces shed load instead
// of blocking — the in-process bus coalesces its ring and stamps
// JobLagged markers; the daemon path coalesces server-side and drops at
// the client's delivery buffer — so the burst completes at full speed
// while the stream is stalled, and the backlog the consumer finally
// drains is provably incomplete.
func TestConformanceSlowWatcherBackpressure(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		all, err := f.client.WatchAll(wctx)
		if err != nil {
			t.Fatal(err)
		}
		// Stalled on purpose: nothing reads `all` until the burst is done.

		// >= 1600 events total, far beyond every buffer in the path.
		// Batched because the daemon retains only the most recent finished
		// jobs — a Wait that trails 800 submissions would find the early
		// ones already aged out of the retention ring.
		const njobs, batch = 800, 200
		for lo := 0; lo < njobs; lo += batch {
			handles := make([]sod.JobHandle, batch)
			for i := range handles {
				h, err := f.client.Submit(ctx, "main", sod.Int(int64(lo+i)), sod.Int(300))
				if err != nil {
					t.Fatalf("submit %d: %v", lo+i, err)
				}
				handles[i] = h
			}
			// Liveness: every job completes promptly even though the
			// watcher has not read a single event.
			for i, h := range handles {
				res, err := h.Wait(ctx)
				if err != nil {
					t.Fatalf("wait %d with stalled watcher: %v", lo+i, err)
				}
				if want := workloads.CruncherExpected(int64(lo+i), 300); res.I != want {
					t.Errorf("job %d: result %d, want %d", lo+i, res.I, want)
				}
			}
		}

		// Now drain the stalled stream: whatever survived the shedding.
		received, lagged, closed := 0, 0, false
		var droppedByMarkers int64
	drain:
		for {
			select {
			case ev, ok := <-all:
				if !ok {
					closed = true
					break drain
				}
				received++
				if ev.Kind == sod.JobLagged {
					lagged++
					droppedByMarkers += ev.Result
				}
			case <-time.After(2 * time.Second):
				break drain // live stream gone quiet: backlog fully drained
			}
		}
		t.Logf("stalled watcher: received %d of >=%d events (%d lagged markers accounting for %d drops, closed=%v)",
			received, 2*njobs, lagged, droppedByMarkers, closed)
		if received == 0 && !closed {
			t.Error("stalled watcher drained nothing and was not evicted; the stream just vanished")
		}
		// The shedding must be observable: markers, an eviction, or a
		// backlog strictly smaller than the events the burst published.
		if lagged == 0 && !closed && received >= 2*njobs {
			t.Errorf("stalled watcher received all %d events; no backpressure was ever applied", received)
		}
	})
}

// TestConformanceMetricsAgreeWithStats pins the two observability
// surfaces to each other: the metrics registry (Client.Metrics) and the
// counter API (Client.Stats) must tell the same story about the submit
// node's migrations and steals — on both implementations. Pushes can
// only originate at node 1 (the one node with home-grown jobs), so the
// balancer's Pushed count and node 1's pushed-migration counter must
// converge to equality once the burst drains.
func TestConformanceMetricsAgreeWithStats(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()

		const njobs = 5
		handles := make([]sod.JobHandle, njobs)
		for i := range handles {
			h, err := f.client.Submit(ctx, "main", sod.Int(int64(70+i)), sod.Int(confIters))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			if _, err := h.Wait(ctx); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		}

		migrationsBy := func(snap *sod.MetricsSnapshot, reason string) int64 {
			return snap.Counters[`sod_migrations_total{reason="`+reason+`"}`]
		}
		stealKeys := []string{
			"sod_steal_requests_sent_total", "sod_steal_won_total",
			"sod_steal_requests_served_total", "sod_steal_granted_total",
			"sod_steal_denied_total", "sod_steal_failed_transfers_total",
		}

		// The registry counters are updated outside the stats locks, so
		// poll briefly for agreement instead of demanding instant
		// consistency.
		deadline := time.Now().Add(10 * time.Second)
		var lastErr string
		for {
			st, err := f.client.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := f.client.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			lastErr = ""
			if got, want := migrationsBy(snap, "pushed"), int64(st.Balance.Pushed); got != want {
				lastErr = fmt.Sprintf("pushed: metrics %d vs stats %d", got, want)
			}
			steal := []int64{
				int64(st.Steal.RequestsSent), int64(st.Steal.Won),
				int64(st.Steal.RequestsServed), int64(st.Steal.Granted),
				int64(st.Steal.Denied), int64(st.Steal.FailedTransfers),
			}
			for i, key := range stealKeys {
				if got := snap.Counters[key]; got != steal[i] {
					lastErr = fmt.Sprintf("%s: metrics %d vs stats %d", key, got, steal[i])
				}
			}
			// Internal consistency: every successful migration observes
			// exactly one latency sample.
			var totalMigs int64
			for _, reason := range []string{"manual", "pushed", "stolen", "rebalanced", "chained"} {
				totalMigs += migrationsBy(snap, reason)
			}
			if lat := snap.Histograms["sod_migration_latency_seconds"]; lat.Count != totalMigs {
				lastErr = fmt.Sprintf("latency histogram count %d vs migrations total %d", lat.Count, totalMigs)
			}
			if lastErr == "" {
				if totalMigs == 0 {
					t.Fatal("no migrations recorded in the metrics registry; the burst never spilled")
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("metrics and stats never agreed: %s", lastErr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestConformanceTrace pins the trace surface: after a job that
// migrated, Trace must return exactly one root span plus a causally
// consistent timeline (every Parent resolves, migrate spans carry their
// capture/transfer/restore phases) — on both implementations — and an
// unknown job must be an error, not an empty timeline.
func TestConformanceTrace(t *testing.T) {
	withClients(t, func(t *testing.T, f confFixture) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()

		const njobs = 4
		handles := make([]sod.JobHandle, njobs)
		for i := range handles {
			h, err := f.client.Submit(ctx, "main", sod.Int(int64(90+i)), sod.Int(confIters))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			handles[i] = h
		}
		for i, h := range handles {
			if _, err := h.Wait(ctx); err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
		}

		// Remote spans ride home asynchronously; poll until some job's
		// timeline contains a complete migration hop.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var sawHop bool
			for _, h := range handles {
				spans, err := f.client.Trace(ctx, h.ID())
				if err != nil {
					t.Fatalf("trace job %d: %v", h.ID(), err)
				}
				byID := make(map[uint64]sod.TraceSpan, len(spans))
				roots := 0
				for _, s := range spans {
					byID[s.ID] = s
					if s.Parent == 0 {
						roots++
						if s.Name != "job" {
							t.Fatalf("job %d root span named %q, want \"job\"", h.ID(), s.Name)
						}
					}
				}
				if roots != 1 {
					t.Fatalf("job %d has %d root spans, want exactly 1: %+v", h.ID(), roots, spans)
				}
				phases := make(map[uint64]map[string]bool) // migrate span → child phases
				for _, s := range spans {
					if s.Parent == 0 {
						continue
					}
					parent, ok := byID[s.Parent]
					if !ok {
						t.Fatalf("job %d span %q (id %d) has unresolved parent %d", h.ID(), s.Name, s.ID, s.Parent)
					}
					if parent.Name == "migrate" {
						if phases[s.Parent] == nil {
							phases[s.Parent] = make(map[string]bool)
						}
						phases[s.Parent][s.Name] = true
					}
				}
				for id, ph := range phases {
					for _, want := range []string{"capture", "transfer", "restore"} {
						if !ph[want] {
							t.Fatalf("job %d migrate span %d missing %s phase (has %v)", h.ID(), id, want, ph)
						}
					}
					sawHop = true
				}
			}
			if sawHop {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no job's trace ever showed a complete migration hop")
			}
			time.Sleep(10 * time.Millisecond)
		}

		if _, err := f.client.Trace(ctx, 999_999); err == nil {
			t.Fatal("Trace(unknown job) succeeded; want an error")
		}
	})
}

// TestConformanceRehomedWatch pins the origin re-homing contract on both
// client surfaces: a Wait and a Watch attached through the origin's
// successor after the job first left its origin and BEFORE the origin
// dies permanently must still complete — the executing nodes' result
// flushes redirect to the successor's shadow — with the terminal event's
// Origin re-stamped to the successor, exactly one terminal per stream,
// and at most one EvLagged marker standing in for the stream that died
// with the origin. The successor is discovered per job (the next peer
// the origin saw alive at the job's first departure), not assumed: a
// momentary suspicion can route one job's shadow to the other survivor.
// The in-process fixture cuts the origin's network for good; the daemon
// fixture stops the origin daemon process — a crash, no goodbye.
func TestConformanceRehomedWatch(t *testing.T) {
	// Long enough that the whole burst is still executing when the origin
	// is killed: the kill then catches every result flush still ahead,
	// and each exercises the redirect-to-successor path rather than
	// racing a discharge from a healthy origin.
	const rehomedIters = 2_000_000
	seeds := []int64{21, 22, 23}

	type port struct {
		client sod.Client
		mgr    *sodee.Manager
	}

	// run drives the surface-independent scenario: evacuate the origin
	// (parallel whole-stack migrations), discover each job's successor,
	// attach Wait and Watch through it, wait for the origin to settle,
	// kill it, then require every wait and every stream to deliver the
	// re-stamped terminal exactly once. "Settled" means no job is resident
	// at the origin AND no discharge is outstanding: a job that completed
	// while the origin lived must have woken its shadow before the axe
	// falls — its flush already succeeded, so no redirect will ever come
	// for it.
	run := func(t *testing.T, ids []uint64, origin *sodee.Manager, survivors map[int]port, kill func()) {
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()

		var evac sync.WaitGroup
		for i, id := range ids {
			evac.Add(1)
			go func(id uint64, dest int) {
				defer evac.Done()
				job, ok := origin.Job(id)
				if !ok {
					t.Errorf("origin lost job %d", id)
					return
				}
				for !job.Done() {
					if _, err := origin.MigrateSOD(job, sodee.SODOptions{
						NFrames: sodee.WholeStack, Dest: dest,
					}); err == nil {
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}(id, 2+i%2)
		}
		evac.Wait()
		// Each evacuation attempt started the job's origin replication,
		// but one that found the job already finished did not wait for
		// it; each job's shadow surfaces as Known at exactly one survivor.
		succOf := make([]int, len(ids))
		deadline := time.Now().Add(20 * time.Second)
		for i, id := range ids {
			for succOf[i] == 0 {
				for node, p := range survivors {
					if p.mgr.Events().Known(id) {
						succOf[i] = node
						break
					}
				}
				if succOf[i] == 0 {
					if time.Now().After(deadline) {
						t.Fatalf("job %d never replicated to a successor", id)
					}
					time.Sleep(time.Millisecond)
				}
			}
		}

		streams := make([]<-chan sod.JobEvent, len(ids))
		waitRes := make([]sod.Value, len(ids))
		waitErr := make([]error, len(ids))
		// Every job's Watch and Wait attach at once: each is a control
		// round trip to a successor already busy running evacuated jobs,
		// and made one after another they can outlast the shortest job,
		// whose result then reaches the living origin instead of taking
		// the re-homed path.
		var attached, waits sync.WaitGroup
		for i, id := range ids {
			attached.Add(1)
			waits.Add(1)
			go func(i int, id uint64) {
				defer waits.Done()
				succ := survivors[succOf[i]].client
				ch, err := succ.Watch(ctx, id)
				var h sod.JobHandle
				if err == nil {
					h, err = succ.Job(id)
				}
				streams[i] = ch
				attached.Done()
				if err != nil {
					t.Errorf("attach to job %d at successor %d: %v", id, succOf[i], err)
					return
				}
				waitRes[i], waitErr[i] = h.Wait(ctx)
			}(i, id)
		}
		attached.Wait()
		if t.Failed() {
			t.FailNow()
		}

		settleBy := time.Now().Add(20 * time.Second)
		for {
			if time.Now().After(settleBy) {
				t.Fatalf("origin never settled: %d jobs still resident", len(origin.RunningJobs()))
			}
			settled := len(origin.RunningJobs()) == 0
			for i, id := range ids {
				if !settled {
					break
				}
				if oj, ok := origin.Job(id); ok && oj.Done() {
					if sj, ok := survivors[succOf[i]].mgr.Job(id); !ok || !sj.Done() {
						settled = false
					}
				}
			}
			if settled {
				break
			}
			time.Sleep(time.Millisecond)
		}
		kill()

		waits.Wait()
		for i := range ids {
			if waitErr[i] != nil {
				t.Fatalf("wait %d (seed %d): %v", ids[i], seeds[i], waitErr[i])
			}
			if want := workloads.CruncherExpected(seeds[i], rehomedIters); waitRes[i].I != want {
				t.Errorf("wait %d (seed %d) = %d, want %d", ids[i], seeds[i], waitRes[i].I, want)
			}
		}
		rehomed := 0
		for i, ch := range streams {
			terminals, lagged, flushed := 0, 0, 0
			var term sod.JobEvent
			for ev := range ch {
				switch {
				case ev.Terminal():
					terminals++
					term = ev
				case ev.Kind == sod.JobLagged:
					lagged++
				case ev.Kind == sod.JobResultFlushed:
					flushed++
				}
			}
			if ctx.Err() != nil {
				t.Fatalf("stream %d never ended", ids[i])
			}
			if terminals != 1 {
				t.Errorf("stream %d delivered %d terminals, want exactly 1", ids[i], terminals)
				continue
			}
			if term.Origin != succOf[i] {
				t.Errorf("stream %d terminal Origin = %d, want re-stamped to successor %d", ids[i], term.Origin, succOf[i])
			}
			if want := workloads.CruncherExpected(seeds[i], rehomedIters); term.Result != want {
				t.Errorf("stream %d terminal carried %d, want %d", ids[i], term.Result, want)
			}
			if lagged > 1 {
				t.Errorf("stream %d saw %d EvLagged markers, want at most 1", ids[i], lagged)
			}
			if flushed > 0 {
				rehomed++
			}
		}
		t.Logf("re-homed deliveries: %d/%d (rest discharged before the kill)", rehomed, len(ids))
	}

	submit := func(t *testing.T, cl sod.Client, ctx context.Context) []uint64 {
		ids := make([]uint64, len(seeds))
		for i, s := range seeds {
			h, err := cl.Submit(ctx, "main", sod.Int(s), sod.Int(rehomedIters))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			ids[i] = h.ID()
		}
		return ids
	}

	t.Run("inprocess", func(t *testing.T) {
		prog, err := daemon.BuildWorkload("cruncher")
		if err != nil {
			t.Fatal(err)
		}
		// Single-slot gates everywhere: the burst round-robins, so no job
		// can finish long before the rest — the kill catches work in
		// flight (same shape as the chaos scenario).
		cluster, err := sod.NewCluster(prog, sod.Gigabit,
			sod.Node{ID: 1, Cores: 1}, sod.Node{ID: 2, Cores: 1}, sod.Node{ID: 3, Cores: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{1, 2, 3} {
			workloads.BindCommon(cluster.On(id).VM())
		}
		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		cl1, err := cluster.ClientOn(1)
		if err != nil {
			t.Fatal(err)
		}
		survivors := make(map[int]port)
		for _, id := range []int{2, 3} {
			cl, err := cluster.ClientOn(id)
			if err != nil {
				t.Fatal(err)
			}
			survivors[id] = port{client: cl, mgr: cluster.On(id).Runtime()}
		}
		ids := submit(t, cl1, ctx)
		run(t, ids, cluster.On(1).Runtime(), survivors,
			func() { cluster.Network().SetNodeDown(1, true) })
	})

	t.Run("daemon", func(t *testing.T) {
		mk := func(id int) *daemon.Daemon {
			d, err := daemon.New(daemon.Config{
				ID: id, Cores: 1,
				Policy: "none", Interval: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("boot daemon %d: %v", id, err)
			}
			t.Cleanup(d.Stop)
			return d
		}
		d1, d2, d3 := mk(1), mk(2), mk(3)
		if err := d2.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := d3.Join(d1.Addr()); err != nil {
			t.Fatal(err)
		}
		cl1, err := sod.Dial(d1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl1.Close() }) //nolint:errcheck
		waitConverged(t, cl1)
		survivors := make(map[int]port)
		for _, d := range []*daemon.Daemon{d2, d3} {
			cl, err := sod.Dial(d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() }) //nolint:errcheck
			survivors[d.ID()] = port{client: cl, mgr: d.Node().Mgr}
		}

		ctx, cancel := context.WithTimeout(context.Background(), confTimeout)
		defer cancel()
		ids := submit(t, cl1, ctx)
		run(t, ids, d1.Node().Mgr, survivors, d1.Stop)
	})
}
