package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/sod"
)

// layerStats accumulates per-layer observations made around the calls
// the benchmark issues. Timings are in microseconds unless named _ms.
type layerStats struct {
	mu          sync.Mutex
	submit      samples
	watchOpen   samples
	termLag     samples
	ctlRTT      samples
	capture     samples
	transfer    samples
	restore     samples
	unaccounted samples
	offloadMS   samples
	hopBytes    samples
	jobs        int64 // jobs whose event stream was checked
	migrations  int64 // JobMigrated events on those streams
	lagged      int64 // JobLagged markers on those streams
}

// hop records one migration's phases, from the program's trace spans or
// from the MigrationMetrics a direct MigrateSOD call returned.
func (ls *layerStats) hop(total, capture, transfer, restore time.Duration, bytes int64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.capture.addDur(capture, time.Microsecond)
	ls.transfer.addDur(transfer, time.Microsecond)
	ls.restore.addDur(restore, time.Microsecond)
	ls.unaccounted.addDur(total-capture-transfer-restore, time.Microsecond)
	ls.hopBytes.add(float64(bytes))
}

// watched is one submitted job with its event stream being drained.
type watched struct {
	num    uint64 // benchmark-wide job number (span job id)
	h      sod.JobHandle
	spanID uint64
	start  time.Time
	events chan watchResult
	cancel context.CancelFunc
}

// watchResult is what a job's Watch stream delivered before it closed.
type watchResult struct {
	terminals     int
	afterTerminal int
	migrations    int
	lagged        int
	termAt        time.Time
	termResult    int64
	termErr       string
}

// jobRunner drives Submit → Watch → Wait → check through one client and
// feeds the layer statistics and the tracer.
type jobRunner struct {
	tr *tracer
	ls *layerStats
	// traceEvery is how often a traced run fetches the program's own trace
	// of a finished job (sod.Client.Trace) and merges it into the span
	// tree; 0 never does.
	traceEvery uint64
	seq        atomic.Uint64
}

// start submits method(args) and opens a Watch on it.
func (r *jobRunner) start(ctx context.Context, c sod.Client, method string, args ...int64) (*watched, error) {
	w := &watched{num: r.seq.Add(1), spanID: r.tr.id(), start: time.Now()}
	vals := make([]sod.Value, len(args))
	for i, a := range args {
		vals[i] = sod.Int(a)
	}
	t0 := time.Now()
	h, err := c.Submit(ctx, method, vals...)
	d := time.Since(t0)
	r.tr.add(span{Parent: w.spanID, Job: w.num, Name: "sod.submit", Start: t0, Dur: d})
	if err != nil {
		w.closeSpan(r.tr, time.Now())
		return nil, fmt.Errorf("submit: %w", err)
	}
	w.h = h
	wctx, cancel := context.WithCancel(ctx)
	w.cancel = cancel
	t1 := time.Now()
	ch, err := c.Watch(wctx, h.ID())
	dw := time.Since(t1)
	r.tr.add(span{Parent: w.spanID, Job: w.num, Name: "sod.watch_open", Start: t1, Dur: dw})
	r.ls.mu.Lock()
	r.ls.submit.addDur(d, time.Microsecond)
	r.ls.watchOpen.addDur(dw, time.Microsecond)
	r.ls.mu.Unlock()
	if err != nil {
		cancel()
		w.closeSpan(r.tr, time.Now())
		return nil, fmt.Errorf("watch job %d: %w", h.ID(), err)
	}
	w.events = make(chan watchResult, 1)
	go func() { w.events <- drainWatch(ch) }()
	return w, nil
}

// closeSpan records the job's root span, which its children name as parent.
func (w *watched) closeSpan(tr *tracer, end time.Time) {
	tr.add(span{ID: w.spanID, Job: w.num, Name: "job", Start: w.start, Dur: end.Sub(w.start)})
}

func drainWatch(ch <-chan sod.JobEvent) watchResult {
	var res watchResult
	for ev := range ch {
		if res.terminals > 0 {
			res.afterTerminal++
		}
		switch ev.Kind {
		case sod.JobCompleted:
			res.terminals++
			res.termAt = time.Now()
			res.termResult = ev.Result
			res.termErr = ev.Err
		case sod.JobMigrated:
			res.migrations++
		case sod.JobLagged:
			res.lagged++
		}
	}
	return res
}

// finish waits for the job's result and its event stream, and checks both:
// the result must equal want, and the stream must end with exactly one
// terminal event that carries the same result. It returns the time Wait
// returned.
func (r *jobRunner) finish(ctx context.Context, c sod.Client, w *watched, want int64) (time.Time, error) {
	defer w.cancel()
	t0 := time.Now()
	v, err := w.h.Wait(ctx)
	done := time.Now()
	r.tr.add(span{Parent: w.spanID, Job: w.num, Name: "sod.wait", Start: t0, Dur: done.Sub(t0)})
	defer w.closeSpan(r.tr, done)
	if err != nil {
		return done, fmt.Errorf("wait job %d: %w", w.h.ID(), err)
	}
	if v.I != want {
		return done, fmt.Errorf("job %d returned %d, want %d", w.h.ID(), v.I, want)
	}
	var ev watchResult
	select {
	case ev = <-w.events:
	case <-ctx.Done():
		return done, fmt.Errorf("job %d: event stream still open at the deadline", w.h.ID())
	}
	switch {
	case ev.terminals != 1:
		return done, fmt.Errorf("job %d: %d terminal events, want 1", w.h.ID(), ev.terminals)
	case ev.afterTerminal != 0:
		return done, fmt.Errorf("job %d: %d events after the terminal", w.h.ID(), ev.afterTerminal)
	case ev.termErr != "" || ev.termResult != want:
		return done, fmt.Errorf("job %d: terminal event result %d (err %q), want %d", w.h.ID(), ev.termResult, ev.termErr, want)
	}
	lag := done.Sub(ev.termAt)
	if lag < 0 {
		lag = -lag
	}
	r.ls.mu.Lock()
	r.ls.termLag.addDur(lag, time.Microsecond)
	r.ls.jobs++
	r.ls.migrations += int64(ev.migrations)
	r.ls.lagged += int64(ev.lagged)
	r.ls.mu.Unlock()
	if r.tr != nil && r.traceEvery > 0 && w.num%r.traceEvery == 0 {
		r.mergeProgramTrace(ctx, c, w)
	}
	return done, nil
}

// mergeProgramTrace fetches the job's trace from its origin daemon and
// merges it; each migrate span also yields one set of hop phases.
func (r *jobRunner) mergeProgramTrace(ctx context.Context, c sod.Client, w *watched) {
	spans, err := c.Trace(ctx, w.h.ID())
	if err != nil {
		return // traces are retained for the last 256 jobs only; a miss is not a failure
	}
	r.tr.mergeObs(w.spanID, w.num, spans)
	var jobStart, firstHop time.Time
	for _, s := range spans {
		switch s.Name {
		case "job":
			jobStart = s.Start
		case "migrate":
			if firstHop.IsZero() || s.Start.Before(firstHop) {
				firstHop = s.Start
			}
			var capture, transfer, restore time.Duration
			for _, k := range spans {
				if k.Parent != s.ID {
					continue
				}
				switch k.Name {
				case "capture":
					capture = k.Dur
				case "transfer":
					transfer = k.Dur
				case "restore":
					restore = k.Dur
				}
			}
			r.ls.hop(s.Dur, capture, transfer, restore, s.Bytes)
		}
	}
	if !jobStart.IsZero() && !firstHop.IsZero() {
		r.ls.mu.Lock()
		r.ls.offloadMS.addDur(firstHop.Sub(jobStart), time.Millisecond)
		r.ls.mu.Unlock()
	}
}

// startStatsPoller issues a Stats call every 50 ms until the returned stop
// function is called or ctx ends: the control plane's round trip under
// load. stop returns once the poller has exited.
func startStatsPoller(ctx context.Context, c sod.Client, tr *tracer, ls *layerStats) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pollStats(ctx, c, tr, ls)
	}()
	return func() {
		cancel()
		<-done
	}
}

func pollStats(ctx context.Context, c sod.Client, tr *tracer, ls *layerStats) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		t0 := time.Now()
		if _, err := c.Stats(ctx); err != nil {
			continue
		}
		d := time.Since(t0)
		tr.add(span{Name: "daemon.stats", Start: t0, Dur: d})
		ls.mu.Lock()
		ls.ctlRTT.addDur(d, time.Microsecond)
		ls.mu.Unlock()
	}
}
