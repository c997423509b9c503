package sodee_test

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The chaos harness: seeded, scripted scenarios that slow nodes down,
// crash them and rejoin them mid-run over the simulated fabric, while the
// balancer pushes, steals and re-balances a burst of jobs across the
// cluster. The invariant under every scenario is exactly-once execution:
// every submitted job completes, with the right answer, and its final
// statement runs exactly one time — a migration that both succeeded and
// "failed" would run it twice; a lost flush would complete it zero times.
//
// The seed matrix comes from CHAOS_SEEDS (comma-separated, default "1");
// `make chaos` runs the full matrix under -race.

// buildChaosProgram is the shared cruncher kernel with the chaos_done
// terminal marker — the exactly-once probe. workloads.CruncherExpected
// remains its Go mirror.
func buildChaosProgram() *bytecode.Program {
	return workloads.CruncherWithMarker("chaos_done")
}

// chaosMarker counts chaos_done firings per job seed, cluster-wide.
type chaosMarker struct {
	mu     sync.Mutex
	counts map[int64]int
}

func newChaosMarker() *chaosMarker {
	return &chaosMarker{counts: make(map[int64]int)}
}

func (m *chaosMarker) native(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	m.mu.Lock()
	m.counts[args[0].AsInt()]++
	m.mu.Unlock()
	return value.Value{}, nil
}

func (m *chaosMarker) count(seed int64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[seed]
}

// chaosEvent is one scripted fault, fired `after` the burst is submitted.
type chaosEvent struct {
	after time.Duration
	kind  string // "crash" | "rejoin" | "slow" | "fast"
	node  int
	spin  int64 // extra per-instruction spin for "slow"
}

// chaosScenario scripts one run: the cluster shape, the burst, the
// balancer posture and the fault schedule.
type chaosScenario struct {
	name      string
	nodes     []sodee.NodeConfig
	submitTo  []int // job i is submitted to submitTo[i%len]
	jobs      int
	iters     int64
	policy    func() policy.Policy
	steal     bool
	hopBudget int
	cooldown  time.Duration
	events    []chaosEvent
}

// chaosSpin burns CPU like the runtime's own throttle hook.
func chaosSpin(n int64) {
	s := uint64(n)
	for i := int64(0); i < n; i++ {
		s = s*6364136223846793005 + 1442695040888963407
	}
	chaosSink.Store(s)
}

var chaosSink atomic.Uint64

// runChaosScenario executes one scenario at one seed and enforces the
// exactly-once invariant.
func runChaosScenario(t *testing.T, sc chaosScenario, seed int64) {
	t.Helper()
	prog := preprocess.MustPreprocess(buildChaosProgram(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := sodee.NewCluster(prog, netsim.Gigabit, sc.nodes...)
	if err != nil {
		t.Fatal(err)
	}
	marker := newChaosMarker()
	slowdown := make(map[int]*atomic.Int64, len(c.Nodes))
	for id, n := range c.Nodes {
		n.VM.BindNative("chaos_done", marker.native)
		// Dynamic slowdown: every thread's instruction hook reads the
		// node's atomic spin knob, so "slow" events throttle threads that
		// are already running.
		sd := &atomic.Int64{}
		slowdown[id] = sd
		base := n.VM.Profile.InstrHook
		n.VM.Profile.InstrHook = func(th *vm.Thread, f *vm.Frame, ins bytecode.Instr) *vm.Raised {
			if s := sd.Load(); s > 0 {
				chaosSpin(s)
			}
			if base != nil {
				return base(th, f, ins)
			}
			return nil
		}
	}

	b := c.AutoBalance(sc.policy(), sodee.BalanceOptions{
		Interval:  500 * time.Microsecond,
		Steal:     sc.steal,
		HopBudget: sc.hopBudget,
		Cooldown:  sc.cooldown,
	})
	defer b.Stop()

	// The burst. Seeds are distinct per job and deterministic per matrix
	// seed, so the marker can attribute every completion.
	jobs := make([]*sodee.Job, sc.jobs)
	seeds := make([]int64, sc.jobs)
	for i := range jobs {
		seeds[i] = seed*100_000 + int64(i) + 1
		home := c.Nodes[sc.submitTo[i%len(sc.submitTo)]]
		j, jerr := home.Mgr.StartJob("main", value.Int(seeds[i]), value.Int(sc.iters))
		if jerr != nil {
			t.Fatal(jerr)
		}
		jobs[i] = j
	}

	// The fault schedule, scripted relative to submission time.
	stopEvents := make(chan struct{})
	var eventWG sync.WaitGroup
	eventWG.Add(1)
	go func() {
		defer eventWG.Done()
		start := time.Now()
		for _, ev := range sc.events {
			select {
			case <-stopEvents:
				return
			case <-time.After(time.Until(start.Add(ev.after))):
			}
			switch ev.kind {
			case "crash":
				c.Net.SetNodeDown(ev.node, true)
			case "rejoin":
				c.Net.SetNodeDown(ev.node, false)
			case "slow":
				slowdown[ev.node].Store(ev.spin)
			case "fast":
				slowdown[ev.node].Store(0)
			}
		}
	}()
	defer func() {
		close(stopEvents)
		eventWG.Wait()
	}()

	// Every job completes — none lost — with the right answer.
	deadline := time.After(90 * time.Second)
	for i, j := range jobs {
		ch := make(chan struct{})
		go func() { j.Wait(); close(ch) }() //nolint:errcheck // re-read below
		select {
		case <-ch:
		case <-deadline:
			t.Fatalf("job %d (seed %d) lost: never completed", i, seeds[i])
		}
		res, jerr := j.Wait()
		if jerr != nil {
			t.Fatalf("job %d (seed %d): %v", i, seeds[i], jerr)
		}
		if want := workloads.CruncherExpected(seeds[i], sc.iters); res.I != want {
			t.Errorf("job %d (seed %d) = %d, want %d", i, seeds[i], res.I, want)
		}
	}
	b.Stop()

	// ... and exactly once: the terminal marker fired a single time per
	// job, wherever in the cluster the final frame ended up running.
	for i, s := range seeds {
		if n := marker.count(s); n != 1 {
			t.Errorf("job %d (seed %d) executed its final statement %d times, want exactly 1", i, s, n)
		}
	}
	st := b.Stats()
	if st.Migrations != st.Pushed+st.Stolen+st.Rebalanced+st.Chained {
		t.Errorf("direction split %d+%d+%d+%d does not sum to %d migrations",
			st.Pushed, st.Stolen, st.Rebalanced, st.Chained, st.Migrations)
	}
	t.Logf("scenario %s seed %d: migrations=%d (pushed %d, stolen %d, rebalanced %d, chained %d, failed %d)",
		sc.name, seed, st.Migrations, st.Pushed, st.Stolen, st.Rebalanced, st.Chained, st.FailedMigrations)
}

// chaosSeeds reads the seed matrix from CHAOS_SEEDS.
func chaosSeeds(t *testing.T) []int64 {
	raw := os.Getenv("CHAOS_SEEDS")
	if raw == "" {
		return []int64{1}
	}
	var out []int64
	for _, part := range strings.Split(raw, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", part, err)
		}
		out = append(out, s)
	}
	return out
}

// weak / strong node shorthands for scenario tables.
func weakNode(id int) sodee.NodeConfig {
	return sodee.NodeConfig{ID: id, Preloaded: true, Cores: 1, Slow: 16}
}

func strongNode(id int) sodee.NodeConfig {
	return sodee.NodeConfig{ID: id, Preloaded: true, Cores: 1}
}

func chaosScenarios() []chaosScenario {
	threshold := func() policy.Policy { return policy.Threshold{} }
	stealOnly := func() policy.Policy { return policy.Never{} }
	return []chaosScenario{
		{
			// Idle thieves drain a weak node's burst while one of them
			// crashes mid-run and rejoins: steals toward the dead node
			// fail harmlessly, jobs it already stole flush after rejoin.
			name:     "steal-during-crash",
			nodes:    []sodee.NodeConfig{weakNode(1), strongNode(2), strongNode(3)},
			submitTo: []int{1},
			jobs:     8,
			iters:    120_000,
			policy:   stealOnly,
			steal:    true,
			events: []chaosEvent{
				{after: 60 * time.Millisecond, kind: "crash", node: 3},
				{after: 400 * time.Millisecond, kind: "rejoin", node: 3},
			},
		},
		{
			// A node that was dead at submission rejoins mid-run; jobs
			// pushed onto the surviving strong node re-balance onto the
			// rejoined one once its heartbeats readmit it.
			name:     "rebalance-during-rejoin",
			nodes:    []sodee.NodeConfig{weakNode(1), strongNode(2), strongNode(3)},
			submitTo: []int{1},
			jobs:     8,
			iters:    150_000,
			policy:   threshold,
			steal:    true,
			events: []chaosEvent{
				{after: 0, kind: "crash", node: 3},
				{after: 50 * time.Millisecond, kind: "slow", node: 2, spin: 24},
				{after: 150 * time.Millisecond, kind: "rejoin", node: 3},
			},
		},
		{
			// The primary spill destination crashes with migrations in
			// flight: failed transfers fall back locally, the detector
			// reroutes the rest, and the crashed node's hosted jobs
			// deliver their results after it rejoins.
			name:     "crash-primary-destination",
			nodes:    []sodee.NodeConfig{weakNode(1), strongNode(2), strongNode(3)},
			submitTo: []int{1},
			jobs:     8,
			iters:    120_000,
			policy:   threshold,
			steal:    false,
			events: []chaosEvent{
				{after: 40 * time.Millisecond, kind: "crash", node: 2},
				{after: 600 * time.Millisecond, kind: "rejoin", node: 2},
			},
		},
		{
			// Rolling slowdowns shift the fastest node every 100ms; push
			// and steal chase the capacity, bounded by the hop gate.
			name:     "rolling-slowdowns",
			nodes:    []sodee.NodeConfig{weakNode(1), strongNode(2), strongNode(3)},
			submitTo: []int{1, 2},
			jobs:     8,
			iters:    120_000,
			policy:   threshold,
			steal:    true,
			cooldown: 100 * time.Millisecond,
			events: []chaosEvent{
				{after: 80 * time.Millisecond, kind: "slow", node: 2, spin: 30},
				{after: 180 * time.Millisecond, kind: "slow", node: 3, spin: 30},
				{after: 280 * time.Millisecond, kind: "fast", node: 2},
				{after: 380 * time.Millisecond, kind: "fast", node: 3},
			},
		},
		{
			// A node sleeps through the whole submission, rejoins into a
			// loaded cluster and pulls its share by stealing.
			name:     "thundering-rejoin",
			nodes:    []sodee.NodeConfig{weakNode(1), strongNode(2), strongNode(3)},
			submitTo: []int{1},
			jobs:     8,
			iters:    150_000,
			policy:   stealOnly,
			steal:    true,
			events: []chaosEvent{
				{after: 0, kind: "crash", node: 3},
				{after: 200 * time.Millisecond, kind: "rejoin", node: 3},
			},
		},
		{
			// Two-node pressure cooker: a tight hop budget and cooldown
			// keep jobs from ping-ponging while both push and steal are
			// armed and the nodes take turns being the slow one.
			name:      "ping-pong-pressure",
			nodes:     []sodee.NodeConfig{strongNode(1), strongNode(2)},
			submitTo:  []int{1, 2},
			jobs:      6,
			iters:     120_000,
			policy:    threshold,
			steal:     true,
			hopBudget: 3,
			cooldown:  150 * time.Millisecond,
			events: []chaosEvent{
				{after: 50 * time.Millisecond, kind: "slow", node: 1, spin: 24},
				{after: 200 * time.Millisecond, kind: "fast", node: 1},
				{after: 200 * time.Millisecond, kind: "slow", node: 2, spin: 24},
				{after: 350 * time.Millisecond, kind: "fast", node: 2},
			},
		},
	}
}

// TestSwarmChaosWatchedCrash is the swarm-scale chaos scenario: a
// thousand jobs in flight, every one with an active watcher on its
// origin bus, when a node holding stolen work crashes and rejoins. The
// invariants are the chaos harness's exactly-once contract (every
// terminal marker fires a single time, every result is right) plus the
// event-plane one: every surviving watch stream ends cleanly with
// exactly one terminal event, delivered last, and never delivers
// anything after it.
func TestSwarmChaosWatchedCrash(t *testing.T) {
	const jobsN = 1000
	iters := int64(2_000)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			prog := preprocess.MustPreprocess(buildChaosProgram(),
				preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
			// Unthrottled nodes: the swarm stresses the control plane, not
			// the interpreter. Submissions go to nodes 1 and 2; node 3
			// steals its share and is the crash target.
			c, err := sodee.NewCluster(prog, netsim.Gigabit,
				sodee.NodeConfig{ID: 1, Preloaded: true},
				sodee.NodeConfig{ID: 2, Preloaded: true},
				sodee.NodeConfig{ID: 3, Preloaded: true})
			if err != nil {
				t.Fatal(err)
			}
			marker := newChaosMarker()
			for _, n := range c.Nodes {
				n.VM.BindNative("chaos_done", marker.native)
			}
			b := c.AutoBalance(policy.Threshold{}, sodee.BalanceOptions{
				Interval: 500 * time.Microsecond,
				Steal:    true,
			})
			defer b.Stop()

			type watchVerdict struct {
				terminals int
				afterTerm int
				result    int64
				closed    bool
			}
			verdicts := make([]watchVerdict, jobsN)
			var watchWG sync.WaitGroup

			jobs := make([]*sodee.Job, jobsN)
			seeds := make([]int64, jobsN)
			for i := range jobs {
				seeds[i] = seed*1_000_000 + int64(i) + 1
				home := c.Nodes[1+i%2]
				j, jerr := home.Mgr.StartJob("main", value.Int(seeds[i]), value.Int(iters))
				if jerr != nil {
					t.Fatal(jerr)
				}
				jobs[i] = j
				ch, cancel, _ := home.Mgr.Events().Subscribe(j.ID)
				watchWG.Add(1)
				go func(i int, ch <-chan sodee.JobEvent, cancel func()) {
					defer watchWG.Done()
					defer cancel()
					v := &verdicts[i]
					timeout := time.After(90 * time.Second)
					for {
						select {
						case ev, ok := <-ch:
							if !ok {
								v.closed = true
								return
							}
							if v.terminals > 0 {
								v.afterTerm++
							}
							if ev.Terminal() {
								v.terminals++
								v.result = ev.Result
							}
						case <-timeout:
							return // closed stays false: the stream hung
						}
					}
				}(i, ch, cancel)
			}

			// The fault: node 3 crashes with stolen work resident, rejoins
			// half a second later so its stranded jobs flush home.
			time.Sleep(80 * time.Millisecond)
			c.Net.SetNodeDown(3, true)
			time.Sleep(500 * time.Millisecond)
			c.Net.SetNodeDown(3, false)

			deadline := time.After(90 * time.Second)
			for i, j := range jobs {
				ch := make(chan struct{})
				go func() { j.Wait(); close(ch) }() //nolint:errcheck // re-read below
				select {
				case <-ch:
				case <-deadline:
					t.Fatalf("job %d (seed %d) lost: never completed", i, seeds[i])
				}
				res, jerr := j.Wait()
				if jerr != nil {
					t.Fatalf("job %d (seed %d): %v", i, seeds[i], jerr)
				}
				if want := workloads.CruncherExpected(seeds[i], iters); res.I != want {
					t.Errorf("job %d (seed %d) = %d, want %d", i, seeds[i], res.I, want)
				}
			}
			watchWG.Wait()

			for i, s := range seeds {
				if n := marker.count(s); n != 1 {
					t.Errorf("job %d (seed %d) executed its final statement %d times, want exactly 1", i, s, n)
				}
				v := verdicts[i]
				if !v.closed {
					t.Errorf("job %d (seed %d): watch stream never ended", i, seeds[i])
					continue
				}
				if v.terminals != 1 {
					t.Errorf("job %d (seed %d): stream delivered %d terminal events, want exactly 1", i, seeds[i], v.terminals)
				}
				if v.afterTerm != 0 {
					t.Errorf("job %d (seed %d): %d events delivered after the terminal", i, seeds[i], v.afterTerm)
				}
				if want := workloads.CruncherExpected(s, iters); v.terminals == 1 && v.result != want {
					t.Errorf("job %d (seed %d): terminal carried %d, want %d", i, seeds[i], v.result, want)
				}
			}
			st := b.Stats()
			t.Logf("swarm chaos seed %d: migrations=%d (pushed %d, stolen %d, rebalanced %d, failed %d)",
				seed, st.Migrations, st.Pushed, st.Stolen, st.Rebalanced, st.FailedMigrations)
		})
	}
}

// TestChaosOriginPermanentDeath is the origin re-homing chaos scenario:
// every job in a 120-job burst originates at node 1, migrates off the
// origin (which replicates it to its successor, node 2), is watched from
// that successor, and then the origin dies permanently — no rejoin, ever.
// The executing nodes' result flushes give up on the origin and redirect
// to the successor's shadows, which must deliver every result exactly
// once: each watch stream ends with exactly one terminal event, nothing
// after it, and at most one EvLagged marker standing in for the events
// that died with the origin.
func TestChaosOriginPermanentDeath(t *testing.T) {
	const jobsN = 120
	iters := int64(150_000)
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run("seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			prog := preprocess.MustPreprocess(buildChaosProgram(),
				preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
			// Every node runs a single-slot CPU gate: 120 threads share it
			// round-robin, so no job can finish much before the rest of
			// the burst — the whole burst is still in flight when the
			// evacuation drains the origin and the axe falls. (A faster
			// survivor would finish early jobs — and flush them to the
			// still-living origin — while later ones were still
			// evacuating.)
			c, err := sodee.NewCluster(prog, netsim.Gigabit,
				sodee.NodeConfig{ID: 1, Preloaded: true, Cores: 1},
				sodee.NodeConfig{ID: 2, Preloaded: true, Cores: 1},
				sodee.NodeConfig{ID: 3, Preloaded: true, Cores: 1})
			if err != nil {
				t.Fatal(err)
			}
			marker := newChaosMarker()
			for _, n := range c.Nodes {
				n.VM.BindNative("chaos_done", marker.native)
			}
			jobs := make([]*sodee.Job, jobsN)
			seeds := make([]int64, jobsN)
			for i := range jobs {
				seeds[i] = seed*1_000_000 + int64(i) + 1
				j, jerr := c.Nodes[1].Mgr.StartJob("main", value.Int(seeds[i]), value.Int(iters))
				if jerr != nil {
					t.Fatal(jerr)
				}
				jobs[i] = j
			}

			succ := c.Nodes[2]
			waitUntil := time.Now().Add(30 * time.Second)

			// Evacuate the origin: every job migrates off node 1, whole
			// stack, each on its own goroutine — MigrateSOD suspends the
			// thread at its next safepoint, and parked threads release
			// their core slot, so the suspends overlap instead of queuing
			// behind each other's quanta. A job that completes at the
			// origin before its migration lands is fine: its discharge
			// wakes the shadow, and the settled gate below waits for it.
			var migrated atomic.Int64
			var evacWG sync.WaitGroup
			for i, j := range jobs {
				evacWG.Add(1)
				go func(j *sodee.Job, dest int) {
					defer evacWG.Done()
					for !j.Done() {
						if time.Now().After(waitUntil) {
							t.Errorf("job %d never evacuated", j.ID)
							return
						}
						_, merr := c.Nodes[1].Mgr.MigrateSOD(j, sodee.SODOptions{
							NFrames: sodee.WholeStack, Dest: dest,
						})
						if merr == nil {
							migrated.Add(1)
							return
						}
						time.Sleep(2 * time.Millisecond)
					}
				}(j, 2+i%2)
			}
			evacWG.Wait()

			// A job is replicated to its successor when it first leaves the
			// origin: every evacuation attempt started one, but one that
			// found the job already finished did not wait for it. Wait for
			// every shadow before watching.
			for _, j := range jobs {
				for !succ.Mgr.Events().Known(j.ID) {
					if time.Now().After(waitUntil) {
						t.Fatalf("job %d never replicated to its successor", j.ID)
					}
					time.Sleep(time.Millisecond)
				}
			}

			// Watchers attach at the successor after the evacuation and
			// before the origin dies: parked on the shadows of jobs still
			// running, replaying the discharged terminal of jobs that
			// finished at the origin.
			type watchVerdict struct {
				terminals int
				afterTerm int
				lagged    int
				flushed   int
				result    int64
				closed    bool
			}
			verdicts := make([]watchVerdict, jobsN)
			var watchWG sync.WaitGroup
			for i, j := range jobs {
				ch, cancel, _ := succ.Mgr.Events().Subscribe(j.ID)
				watchWG.Add(1)
				go func(i int, ch <-chan sodee.JobEvent, cancel func()) {
					defer watchWG.Done()
					defer cancel()
					v := &verdicts[i]
					timeout := time.After(90 * time.Second)
					for {
						select {
						case ev, ok := <-ch:
							if !ok {
								v.closed = true
								return
							}
							if v.terminals > 0 {
								v.afterTerm++
							}
							switch {
							case ev.Terminal():
								v.terminals++
								v.result = ev.Result
							case ev.Kind == sodee.EvLagged:
								v.lagged++
							case ev.Kind == sodee.EvResultFlushed:
								v.flushed++
							}
						case <-timeout:
							return // closed stays false: the stream hung
						}
					}
				}(i, ch, cancel)
			}

			// Let the evacuation drain the origin, then kill it for good.
			// "Drained" means no job is resident anymore AND no discharge
			// is pending: a job that completed while the origin lived must
			// have woken its shadow before the axe falls, or the shadow
			// sleeps forever — the flush already succeeded, so no redirect
			// will ever come for it.
			for {
				if time.Now().After(waitUntil) {
					t.Fatalf("origin never drained: %d jobs still resident",
						len(c.Nodes[1].Mgr.RunningJobs()))
				}
				settled := len(c.Nodes[1].Mgr.RunningJobs()) == 0
				for _, j := range jobs {
					if !settled {
						break
					}
					if j.Done() {
						if sj, ok := succ.Mgr.Job(j.ID); !ok || !sj.Done() {
							settled = false
						}
					}
				}
				if settled {
					break
				}
				time.Sleep(time.Millisecond)
			}
			c.Net.SetNodeDown(1, true) // permanent: no rejoin event follows

			// Every result lands at the successor's shadow exactly once.
			deadline := time.After(90 * time.Second)
			for i, j := range jobs {
				sj, ok := succ.Mgr.Job(j.ID)
				if !ok {
					t.Fatalf("job %d (seed %d): successor lost the shadow handle", i, seeds[i])
				}
				ch := make(chan struct{})
				go func() { sj.Wait(); close(ch) }() //nolint:errcheck // re-read below
				select {
				case <-ch:
				case <-deadline:
					delivered := 0
					for _, jj := range jobs {
						if sjj, ok2 := succ.Mgr.Job(jj.ID); ok2 && sjj.Done() {
							delivered++
						}
					}
					t.Fatalf("job %d (seed %d) lost: successor never delivered (marker=%d originDone=%v delivered=%d/%d)",
						i, seeds[i], marker.count(seeds[i]), j.Done(), delivered, jobsN)
				}
				res, jerr := sj.Wait()
				if jerr != nil {
					t.Fatalf("job %d (seed %d): %v", i, seeds[i], jerr)
				}
				if want := workloads.CruncherExpected(seeds[i], iters); res.I != want {
					t.Errorf("job %d (seed %d) = %d, want %d", i, seeds[i], res.I, want)
				}
			}
			watchWG.Wait()

			rehomed := 0
			for i, s := range seeds {
				if n := marker.count(s); n != 1 {
					t.Errorf("job %d (seed %d) executed its final statement %d times, want exactly 1", i, s, n)
				}
				v := verdicts[i]
				if !v.closed {
					t.Errorf("job %d (seed %d): watch stream never ended", i, seeds[i])
					continue
				}
				if v.terminals != 1 {
					t.Errorf("job %d (seed %d): stream delivered %d terminal events, want exactly 1", i, seeds[i], v.terminals)
				}
				if v.afterTerm != 0 {
					t.Errorf("job %d (seed %d): %d events delivered after the terminal", i, seeds[i], v.afterTerm)
				}
				if v.lagged > 1 {
					t.Errorf("job %d (seed %d): %d EvLagged markers, want at most 1", i, seeds[i], v.lagged)
				}
				if want := workloads.CruncherExpected(s, iters); v.terminals == 1 && v.result != want {
					t.Errorf("job %d (seed %d): terminal carried %d, want %d", i, seeds[i], v.result, want)
				}
				if v.flushed > 0 {
					rehomed++
				}
			}
			// The scenario must actually exercise the re-homed delivery
			// path (redirected flush into the shadow route), not just
			// discharges from pre-death completions.
			if rehomed < jobsN/10 {
				t.Errorf("only %d/%d jobs took the re-homed flush path", rehomed, jobsN)
			}
			t.Logf("origin permanent death seed %d: %d/%d re-homed deliveries, %d migrations",
				seed, rehomed, jobsN, migrated.Load())
		})
	}
}

// TestChaosScenarios runs the full scenario table across the seed matrix.
func TestChaosScenarios(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		for _, sc := range chaosScenarios() {
			sc, seed := sc, seed
			t.Run(sc.name+"/seed"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				runChaosScenario(t, sc, seed)
			})
		}
	}
}
