package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/sod"
)

const (
	// setupRepeats is how many times a run brings its cluster up; setup_s
	// is the median, and the last cluster is the one measured.
	setupRepeats = 11
	// warmup runs the workload's load before the measured window opens,
	// unless the workload sets its own.
	warmup = 2 * time.Second
	// drainGrace bounds how long jobs outstanding when the window closes
	// may take to finish; any still outstanding then count as failed.
	drainGrace = 15 * time.Second
)

// env is what every workload run shares.
type env struct {
	seed    int64
	window  time.Duration
	tr      *tracer
	ps      *procSet
	sodd    string // daemon binary (cluster workloads)
	ls      *layerStats
	out     *outcome
	details map[string]any
}

// outcome is one run's end-to-end tally.
type outcome struct {
	mu        sync.Mutex
	setup     samples // seconds per bring-up
	lat       samples // ms per operation started inside the window
	opsDone   int64   // operations completed inside the window
	perSecond []int64 // completions in each second of the window
	attempted int64
	failed    int64
	errs      []string
	rssMB     float64
	counters  counters // program counters over the window (traced runs)
}

// record tallies one operation that started (or was due) at start and
// ended at done.
func (o *outcome) record(start, done time.Time, err error, winStart, winEnd time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, err.Error())
		}
		return
	}
	if !start.Before(winStart) && start.Before(winEnd) {
		o.lat.addDur(done.Sub(start), time.Millisecond)
	}
	if !done.Before(winStart) && done.Before(winEnd) {
		o.opsDone++
		sec := int(done.Sub(winStart) / time.Second)
		for len(o.perSecond) <= sec {
			o.perSecond = append(o.perSecond, 0)
		}
		o.perSecond[sec]++
	}
}

// counters are the program's own counters, summed over nodes.
type counters struct {
	pushes, stealReqs, stealGranted int64
	deltaSaved, shippedBytes        int64
	migrations, eventsCoalesced     int64
}

func (c counters) minus(b counters) counters {
	return counters{
		pushes: c.pushes - b.pushes, stealReqs: c.stealReqs - b.stealReqs,
		stealGranted: c.stealGranted - b.stealGranted,
		deltaSaved:   c.deltaSaved - b.deltaSaved, shippedBytes: c.shippedBytes - b.shippedBytes,
		migrations: c.migrations - b.migrations, eventsCoalesced: c.eventsCoalesced - b.eventsCoalesced,
	}
}

func (c *counters) addNode(st sod.ClusterStats, snap *obs.Snapshot) {
	c.pushes += int64(st.Balance.Pushed)
	c.stealReqs += int64(st.Steal.RequestsSent)
	c.stealGranted += int64(st.Steal.Granted)
	if snap == nil {
		return
	}
	c.deltaSaved += snap.Counters["sod_delta_bytes_saved"]
	c.eventsCoalesced += snap.Counters["sod_events_coalesced_total"]
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sod_migration_bytes_total") {
			c.shippedBytes += v
		}
	}
	c.migrations += snap.Histograms["sod_migration_latency_seconds"].Count
}

// clusterCounters reads every daemon's counters through a short-lived
// control connection each (outside the measured window).
func clusterCounters(ctx context.Context, c *sodCluster) (counters, error) {
	var total counters
	for _, p := range c.procs {
		cl, err := sod.DialTimeout(p.addr, 5*time.Second)
		if err != nil {
			return total, err
		}
		st, err := cl.Stats(ctx)
		var snap *obs.Snapshot
		if err == nil {
			snap, err = cl.Metrics(ctx)
		}
		cl.Close() //nolint:errcheck
		if err != nil {
			return total, fmt.Errorf("node %d counters: %w", p.id, err)
		}
		total.addNode(st, snap)
	}
	return total, nil
}

func hopCounters(h *hopCluster) counters {
	var total counters
	for _, d := range h.ds {
		total.addNode(sod.ClusterStats{Balance: d.Stats(), Steal: d.StealStats()}, d.Node().Obs.Snapshot())
	}
	return total
}

// clusterSpec describes a workload over three sodd processes.
type clusterSpec struct {
	nodeFlags [3][]string
	conns     []int   // daemon index of each control connection
	closed    int     // closed loop: outstanding jobs (0 = open loop)
	rate      float64 // open loop: Poisson arrivals per second
	iters     int64   // cruncher iterations per job
	// traceEvery: a traced run merges the program's trace of every
	// traceEvery-th job, enough jobs to time the migrations they made.
	traceEvery uint64
	// warmup, when set, replaces the default warm-up.
	warmup time.Duration
}

var balanced = []string{"-policy", "threshold", "-steal"}

var specs = map[string]clusterSpec{
	"submit-closed": {
		nodeFlags:  [3][]string{balanced, balanced, balanced},
		conns:      []int{0, 1},
		closed:     8,
		iters:      1000,
		traceEvery: 50,
		// Throughput falls from about 5700 to about 3500 jobs/s over the
		// first five seconds of load as the daemons' job tables grow; the
		// window opens after that drop.
		warmup: 5 * time.Second,
	},
	"offload-open": {
		nodeFlags:  [3][]string{append([]string{"-cores", "1", "-slow", "16"}, balanced...), balanced, balanced},
		conns:      []int{0, 0},
		rate:       offloadRate,
		iters:      offloadIters,
		traceEvery: 5,
	},
}

// The offload-open load. Node 1 alone takes about 45 ms a job at this
// size, some 22 jobs/s, so 60 arrivals/s overload it unless the balancer
// offloads; at 120/s the whole cluster's backlog starts to climb.
const (
	offloadRate  = 60
	offloadIters = 100_000
)

// runCluster runs a submit-closed or offload-open measurement.
func runCluster(ctx context.Context, e *env, spec clusterSpec) error {
	var cl *sodCluster
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := startCluster(ctx, e.ps, e.sodd, spec.nodeFlags)
		if err != nil {
			return fmt.Errorf("cluster set-up: %w", err)
		}
		e.out.setup.add(time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer cl.stop()

	clients := make([]sod.Client, 0, len(spec.conns))
	defer func() {
		for _, c := range clients {
			c.Close() //nolint:errcheck // teardown
		}
	}()
	for _, idx := range spec.conns {
		c, err := sod.DialTimeout(cl.procs[idx].addr, 5*time.Second)
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	var before counters
	if e.tr != nil {
		var err error
		if before, err = clusterCounters(ctx, cl); err != nil {
			return err
		}
	}

	r := &jobRunner{tr: e.tr, ls: e.ls, traceEvery: spec.traceEvery}
	begin := time.Now()
	winStart := begin.Add(warmup)
	if spec.warmup > 0 {
		winStart = begin.Add(spec.warmup)
	}
	winEnd := winStart.Add(e.window)
	hctx, cancel := context.WithDeadline(ctx, winEnd.Add(drainGrace))
	defer cancel()
	if e.tr != nil {
		pctx, cancelPoll := context.WithDeadline(hctx, winEnd)
		defer cancelPoll()
		defer startStatsPoller(pctx, clients[len(clients)-1], e.tr, e.ls)()
	}
	if spec.closed > 0 {
		closedLoop(hctx, e, r, clients, spec, winStart, winEnd)
	} else {
		openLoop(hctx, e, r, clients[0], spec, begin, winStart, winEnd)
	}
	e.out.rssMB = cl.rssMB()
	if e.tr != nil {
		after, err := clusterCounters(ctx, cl)
		if err != nil {
			return err
		}
		e.out.counters = after.minus(before)
	}
	return nil
}

// jobArg derives a job's cruncher seed argument.
func jobArg(rng *rand.Rand) int64 { return rng.Int63n(1 << 20) }

func closedLoop(ctx context.Context, e *env, r *jobRunner, clients []sod.Client, spec clusterSpec, winStart, winEnd time.Time) {
	var wg sync.WaitGroup
	for w := 0; w < spec.closed; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1_000_003 + int64(w)))
			c := clients[w%len(clients)]
			for time.Now().Before(winEnd) && ctx.Err() == nil {
				arg := jobArg(rng)
				t0 := time.Now()
				err := runOne(ctx, r, c, arg, spec.iters)
				e.out.record(t0, time.Now(), err, winStart, winEnd)
			}
		}(w)
	}
	wg.Wait()
}

func runOne(ctx context.Context, r *jobRunner, c sod.Client, arg, iters int64) error {
	w, err := r.start(ctx, c, "main", arg, iters)
	if err != nil {
		return err
	}
	_, err = r.finish(ctx, c, w, workloads.CruncherExpected(arg, iters))
	return err
}

// openLoop submits on a Poisson schedule drawn from the seed, whatever
// the cluster's state; each job's latency counts from its due time. The
// schedule is a Poisson process conditioned on its count — rate × length
// arrivals at uniformly drawn times — so every seed offers the same load
// and only the arrival pattern varies.
func openLoop(ctx context.Context, e *env, r *jobRunner, c sod.Client, spec clusterSpec, begin, winStart, winEnd time.Time) {
	rng := rand.New(rand.NewSource(e.seed))
	total := winEnd.Sub(begin)
	offsets := make([]time.Duration, int(spec.rate*total.Seconds()))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(total)))
	}
	sort.Slice(offsets, func(i, j int) bool { return offsets[i] < offsets[j] })
	dues := make([]time.Time, len(offsets))
	args := make([]int64, len(offsets))
	for i, off := range offsets {
		dues[i] = begin.Add(off)
		args[i] = jobArg(rng)
	}
	var late samples
	var outstanding, maxOutstanding atomic.Int64
	var atMid, atEnd int64
	midSeen := false
	mid := winStart.Add(e.window / 2)
	var wg sync.WaitGroup
	for k, due := range dues {
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		now := time.Now()
		if !due.Before(winStart) {
			late.addDur(now.Sub(due), time.Millisecond)
		}
		if !midSeen && !now.Before(mid) {
			atMid, midSeen = outstanding.Load(), true
		}
		if n := outstanding.Add(1); n > maxOutstanding.Load() {
			maxOutstanding.Store(n)
		}
		wg.Add(1)
		go func(due time.Time, arg int64) {
			defer wg.Done()
			defer outstanding.Add(-1)
			err := runOne(ctx, r, c, arg, spec.iters)
			e.out.record(due, time.Now(), err, winStart, winEnd)
		}(due, args[k])
	}
	atEnd = outstanding.Load()
	wg.Wait()
	ls := late.summarize()
	e.details["open_loop"] = map[string]any{
		"rate_per_s":            spec.rate,
		"arrivals":              len(dues),
		"generator_late_ms_p50": ls.P50,
		"generator_late_ms_p99": ls.P99,
		"backlog_at_mid":        atMid,
		"backlog_at_end":        atEnd,
		"backlog_max":           maxOutstanding.Load(),
	}
}

// runHop runs a hop-warm or hop-churn measurement: back-to-back
// whole-stack migrations of one job at a time between two TCP nodes.
func runHop(ctx context.Context, e *env, p *hopProgram) error {
	var h *hopCluster
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		c, err := startHopCluster(ctx, p)
		if err != nil {
			return fmt.Errorf("hop cluster set-up: %w", err)
		}
		e.out.setup.add(time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			c.stop()
		} else {
			h = c
		}
	}
	defer h.stop()
	before := hopCounters(h)

	r := &jobRunner{tr: e.tr, ls: e.ls}
	begin := time.Now()
	winStart := begin.Add(warmup)
	winEnd := winStart.Add(e.window)
	hctx, cancel := context.WithDeadline(ctx, winEnd.Add(drainGrace))
	defer cancel()
	if e.tr != nil {
		// A second control connection carries the Stats polling, as in the
		// cluster workloads.
		sc, err := sod.DialTimeout(h.ds[0].Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		defer sc.Close() //nolint:errcheck
		pctx, cancelPoll := context.WithDeadline(hctx, winEnd)
		defer cancelPoll()
		defer startStatsPoller(pctx, sc, e.tr, e.ls)()
	}
	rng := rand.New(rand.NewSource(e.seed))
	onHop := func(start time.Time, d time.Duration, err error) {
		e.out.record(start, start.Add(d), err, winStart, winEnd)
	}
	for time.Now().Before(winEnd) && hctx.Err() == nil {
		if err := h.job(hctx, r, jobArg(rng), hopsPerJob, onHop); err != nil {
			e.out.record(time.Now(), time.Now(), err, winStart, winEnd)
		}
	}
	e.out.rssMB = peakRSSMB(0)
	e.out.counters = hopCounters(h).minus(before)
	return nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
