package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bytecode"
	"repro/internal/daemon"
	"repro/internal/netsim"
	"repro/internal/serial"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The probes time layers that a workload's own calls do not reach from
// the benchmark's side: the interpreter, the state codec and the TCP
// transport. A traced run runs them after its window, on every workload.

// vmProbe runs the cruncher kernel through vm.New + RunMain and returns
// the median interpreter rate in instructions per second.
func vmProbe(tr *tracer) (float64, error) {
	prog, err := daemon.BuildWorkload("cruncher")
	if err != nil {
		return 0, err
	}
	mid := prog.MethodByName("main")
	var rates samples
	for i := int64(0); i < 7; i++ {
		v := vm.New(prog, 1, true)
		t0 := time.Now()
		res, err := v.RunMain(mid, value.Int(i), value.Int(200_000))
		d := time.Since(t0)
		tr.add(span{Name: "vm.run", Start: t0, Dur: d})
		if err != nil {
			return 0, err
		}
		if want := workloads.CruncherExpected(i, 200_000); res.I != want {
			return 0, fmt.Errorf("vm probe: main(%d) = %d, want %d", i, res.I, want)
		}
		rates.add(float64(v.LiveInstructions()) / d.Seconds())
	}
	return rates.quantile(0.5), nil
}

// serialResult is one state's codec timings.
type serialResult struct {
	encodeUS, decodeUS, allocs, bytes float64
}

// parkedState starts entry(args) on a bare VM and captures its whole
// stack (CaptureDirect) while the thread is parked inside native park,
// the way a migration sees it at a safe point.
func parkedState(prog *bytecode.Program, entry, park string, ret value.Value, seed func(*vm.VM), args ...value.Value) (*serial.CapturedState, error) {
	v := vm.New(prog, 1, true)
	if seed != nil {
		seed(v)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	v.BindNative(park, func(*vm.Thread, []value.Value) (value.Value, *vm.Raised) {
		close(parked)
		<-release
		return ret, nil
	})
	t, err := v.NewThread(prog.MethodByName(entry), args...)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.Run()
	}()
	defer func() {
		close(release)
		<-done
	}()
	select {
	case <-parked:
	case <-done:
		return nil, fmt.Errorf("%s finished before parking", entry)
	}
	return sodee.CaptureDirect(v, t, t.Depth(), 1, false)
}

// serialProbe encodes and decodes a captured state repeatedly.
func serialProbe(tr *tracer, name string, prog *bytecode.Program, cs *serial.CapturedState) (serialResult, error) {
	const n = 200
	var enc, dec samples
	var buf []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	encStart := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		buf = serial.EncodeCapturedState(cs, prog, serial.Fast)
		enc.addDur(time.Since(t0), time.Microsecond)
	}
	encDur := time.Since(encStart)
	runtime.ReadMemStats(&ms1)
	decStart := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := serial.DecodeCapturedState(buf, prog, serial.Fast); err != nil {
			return serialResult{}, fmt.Errorf("decode %s state: %w", name, err)
		}
		dec.addDur(time.Since(t0), time.Microsecond)
	}
	tr.add(span{Name: "serial.encode_" + name, Start: encStart, Dur: encDur})
	tr.add(span{Name: "serial.decode_" + name, Start: decStart, Dur: time.Since(decStart)})
	return serialResult{
		encodeUS: enc.quantile(0.5),
		decodeUS: dec.quantile(0.5),
		allocs:   float64(ms1.Mallocs-ms0.Mallocs) / n,
		bytes:    float64(len(buf)),
	}, nil
}

// serialProbes measures the codec on the hot-class state (a HotClass job
// parked at its entry marker) and on the churn program's state.
func serialProbes(tr *tracer) (hot, churn serialResult, err error) {
	const marker = "bench_park"
	hp := compile(workloads.HotClassWithMarker(marker))
	cs, err := parkedState(hp, "Hot.crunch", marker, value.Value{},
		func(v *vm.VM) { workloads.SeedHotClass(v, hp) }, value.Int(3), value.Int(1000))
	if err != nil {
		return hot, churn, err
	}
	if hot, err = serialProbe(tr, "hot", hp, cs); err != nil {
		return hot, churn, err
	}
	cp := churnProgram()
	cs, err = parkedState(cp.prog, cp.entry, gateNative, value.Int(0), cp.seedStatics, value.Int(3))
	if err != nil {
		return hot, churn, err
	}
	churn, err = serialProbe(tr, "churn", cp.prog, cs)
	return hot, churn, err
}

// netsimResult is the transport's round trips and bulk rate.
type netsimResult struct {
	small, large samples // call round trips, µs
	frameMBs     float64
}

// netsimProbe echoes 64 B and 64 KB payloads between two TCP transports
// on loopback and sends 4 MB frames one way.
func netsimProbe(tr *tracer) (netsimResult, error) {
	var res netsimResult
	a, err := netsim.NewTCPTransport(1, "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer a.Close() //nolint:errcheck
	b, err := netsim.NewTCPTransport(2, "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer b.Close() //nolint:errcheck
	b.Handle(netsim.KindHTTP, func(_ int, p []byte) ([]byte, error) { return p, nil })
	b.Handle(netsim.KindNFSRead, func(int, []byte) ([]byte, error) { return nil, nil })
	peer, err := a.Connect(b.Addr())
	if err != nil {
		return res, err
	}
	call := func(kind netsim.MsgKind, payload []byte, into *samples) error {
		t0 := time.Now()
		reply, err := a.Call(peer, kind, payload)
		d := time.Since(t0)
		tr.add(span{Name: "netsim.call", Start: t0, Dur: d, Bytes: int64(len(payload))})
		if err != nil {
			return err
		}
		if kind == netsim.KindHTTP && len(reply) != len(payload) {
			return fmt.Errorf("netsim echo returned %d bytes, sent %d", len(reply), len(payload))
		}
		if into != nil {
			into.addDur(d, time.Microsecond)
		}
		return nil
	}
	for i := 0; i < 1000; i++ {
		if err := call(netsim.KindHTTP, make([]byte, 64), &res.small); err != nil {
			return res, err
		}
	}
	for i := 0; i < 300; i++ {
		if err := call(netsim.KindHTTP, make([]byte, 64<<10), &res.large); err != nil {
			return res, err
		}
	}
	frame := make([]byte, 4<<20)
	var frames samples
	for i := 0; i < 12; i++ {
		if err := call(netsim.KindNFSRead, frame, &frames); err != nil {
			return res, err
		}
	}
	res.frameMBs = float64(len(frame)) / (1 << 20) / (frames.quantile(0.5) / 1e6)
	return res, nil
}

// migrationProbe makes hop-warm migrations when a workload's window saw
// too few to report phase timings (submit-closed rarely migrates). Its
// calls are not traced, so the window's span tree stays the window's.
func migrationProbe(ctx context.Context) (*layerStats, error) {
	h, err := startHopCluster(ctx, hotProgram())
	if err != nil {
		return nil, err
	}
	defer h.stop()
	r := &jobRunner{ls: &layerStats{}}
	var hopErr error
	for i := int64(0); i < 5 && hopErr == nil; i++ {
		err := h.job(ctx, r, i, hopsPerJob, func(_ time.Time, _ time.Duration, err error) {
			if hopErr == nil {
				hopErr = err
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return r.ls, hopErr
}
