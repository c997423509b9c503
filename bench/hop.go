package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/daemon"
	"repro/internal/sodee"
	"repro/sod"
)

// hopsPerJob is how many back-to-back migrations each hop job makes
// before the benchmark closes its gate and waits for the result.
const hopsPerJob = 10

// hopCluster is two in-process daemons on real TCP loopback sockets with
// no automatic balancing: every migration is one the benchmark asks for.
type hopCluster struct {
	prog   *hopProgram
	gate   *gate
	ds     [2]*daemon.Daemon
	client sod.Client // control connection to daemon 1, the jobs' origin
}

func (h *hopCluster) stop() {
	if h.client != nil {
		h.client.Close() //nolint:errcheck // teardown
	}
	for _, d := range h.ds {
		if d != nil {
			d.Stop()
		}
	}
}

// startHopCluster brings the pair up: both daemons running, each view
// showing the other Alive, wire capabilities negotiated in both
// directions, and one checked two-hop job done. Its duration is one
// setup_s sample.
func startHopCluster(ctx context.Context, p *hopProgram) (*hopCluster, error) {
	h := &hopCluster{prog: p, gate: &gate{}}
	for i := range h.ds {
		d, err := daemon.New(daemon.Config{ID: i + 1, Prog: p.prog, Policy: "none"})
		if err != nil {
			h.stop()
			return nil, err
		}
		d.Node().VM.BindNative(gateNative, h.gate.native)
		p.seedStatics(d.Node().VM)
		h.ds[i] = d
	}
	if err := h.ds[1].Join(h.ds[0].Addr()); err != nil {
		h.stop()
		return nil, err
	}
	if err := h.ready(ctx); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

func (h *hopCluster) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for i := len(h.ds) - 1; i >= 0; i-- {
		cl, err := sod.DialTimeout(h.ds[i].Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		if err := waitAllAlive(ctx, cl, len(h.ds)); err != nil {
			cl.Close() //nolint:errcheck
			return fmt.Errorf("node %d: %w", i+1, err)
		}
		if i == 0 {
			h.client = cl
		} else {
			cl.Close() //nolint:errcheck // set-up connection only
		}
	}
	// Load reports carry the wire capabilities; both directions must have
	// heard one before the delta path is in use.
	for _, d := range h.ds {
		for len(d.Node().Mgr.PeerSignals()) == 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("node %d never heard its peer's load report", d.ID())
			case <-time.After(time.Millisecond):
			}
		}
	}
	var hopErr error
	r := &jobRunner{ls: &layerStats{}}
	err := h.job(ctx, r, 1, 2, func(_ time.Time, _ time.Duration, err error) {
		if hopErr == nil {
			hopErr = err
		}
	})
	if err == nil {
		err = hopErr
	}
	return err
}

// job runs one hop job: submit Entry(seed) on daemon 1 with a Watch,
// migrate the whole stack back and forth hops times, close the gate, and
// check the result and the event stream. onHop sees every migration and
// its error; the returned error is the job's own (submit, result, events).
func (h *hopCluster) job(ctx context.Context, r *jobRunner, seed int64, hops int, onHop func(start time.Time, d time.Duration, err error)) error {
	h.gate.reset()
	w, err := r.start(ctx, h.client, h.prog.entry, seed)
	if err != nil {
		h.gate.close()
		return err
	}
	cur := 0
	var hopErr error
	for i := 0; i < hops && hopErr == nil; i++ {
		var t0 time.Time
		t0, hopErr = h.hop(ctx, r, w, cur, onHop)
		if i == 0 && hopErr == nil {
			r.ls.mu.Lock()
			r.ls.offloadMS.addDur(t0.Sub(w.start), time.Millisecond)
			r.ls.mu.Unlock()
		}
		cur = 1 - cur
	}
	n := h.gate.close()
	_, err = r.finish(ctx, h.client, w, h.prog.expected(seed, n))
	return err
}

// hop migrates the job's whole stack from daemon cur to the other one and
// returns when the call started.
func (h *hopCluster) hop(ctx context.Context, r *jobRunner, w *watched, cur int, onHop func(time.Time, time.Duration, error)) (time.Time, error) {
	m := h.ds[cur].Node().Mgr
	j, err := hostedJob(ctx, m)
	if err != nil {
		err = fmt.Errorf("node %d: %w", cur+1, err)
		onHop(time.Now(), 0, err)
		return time.Time{}, err
	}
	t0 := time.Now()
	mm, err := m.MigrateSOD(j, sodee.SODOptions{
		NFrames: sodee.WholeStack, Dest: h.ds[1-cur].ID(), Flow: sodee.FlowReturnHome,
	})
	d := time.Since(t0)
	onHop(t0, d, err)
	if err != nil {
		return t0, fmt.Errorf("hop %d→%d: %w", cur+1, 2-cur, err)
	}
	r.ls.hop(d, mm.Capture, mm.Transfer, mm.Restore, mm.StateBytes+mm.ClassBytes)
	if r.tr != nil {
		id := r.tr.add(span{Parent: w.spanID, Job: w.num, Name: "sodee.migrate", Start: t0, Dur: d,
			Bytes: mm.StateBytes + mm.ClassBytes})
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"sodee.capture", mm.Capture}, {"sodee.transfer", mm.Transfer}, {"sodee.restore", mm.Restore}} {
			r.tr.add(span{Parent: id, Job: w.num, Name: ph.name, Start: at, Dur: ph.d})
			at = at.Add(ph.d)
		}
	}
	return t0, nil
}

// hostedJob waits until m hosts a migratable job — a hop's destination
// may still be applying streamed statics when MigrateSOD returns. It
// yields before it sleeps: a short timer sleep can round up to a whole
// millisecond or more, which would pace the hop loop instead of the hops.
func hostedJob(ctx context.Context, m *sodee.Manager) (*sodee.Job, error) {
	for i := 0; ; i++ {
		if js := m.RunningJobs(); len(js) > 0 {
			return js[0], nil
		}
		if i < 100 {
			runtime.Gosched()
			continue
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("no migratable job: %w", ctx.Err())
		case <-time.After(20 * time.Microsecond):
		}
	}
}
