package sod_test

import (
	"sync"
	"testing"
	"time"

	"repro/sod"
	"repro/sodasm"
)

// buildApp assembles a small two-stage computation with a pause native.
func buildApp() *sod.Program {
	pb := sodasm.NewProgram()
	pb.Native("pause", 0, false)

	work := pb.Func("work", true, "n")
	work.Line().CallNat("pause", 0)
	work.Line().Int(0).Store("acc")
	work.Line().Int(0).Store("i")
	work.Label("loop")
	work.Line().Load("i").Load("n").Ge().Jnz("done")
	work.Line().Load("acc").Load("i").Add().Store("acc")
	work.Line().Load("i").Int(1).Add().Store("i")
	work.Line().Jmp("loop")
	work.Label("done")
	work.Line().Load("acc").RetV()

	mn := pb.Func("main", true, "n")
	mn.Line().Load("n").Call("work", 1).Store("r")
	mn.Line().Load("r").Int(7).Add().RetV()
	return pb.MustBuild()
}

type pauser struct {
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func newPauser() *pauser {
	return &pauser{reached: make(chan struct{}), release: make(chan struct{})}
}

func (p *pauser) fn(args []sod.Value) (sod.Value, error) {
	p.once.Do(func() {
		close(p.reached)
		<-p.release
	})
	return sod.Value{}, nil
}

func TestPublicAPIEndToEnd(t *testing.T) {
	app := sod.Compile(buildApp())
	cluster, err := sod.NewCluster(app, sod.Gigabit,
		sod.Node{ID: 1}, sod.Node{ID: 2, Cold: true})
	if err != nil {
		t.Fatal(err)
	}
	p := newPauser()
	cluster.On(1).BindNative("pause", p.fn)
	cluster.On(2).BindNative("pause", p.fn)

	home := cluster.On(1)
	job, err := home.Start("main", sod.Int(500_000))
	if err != nil {
		t.Fatal(err)
	}
	<-p.reached
	type out struct {
		m   *sod.Metrics
		err error
	}
	ch := make(chan out, 1)
	go func() {
		m, merr := home.Migrate(job, sod.Migration{Frames: 1, Dest: 2, Flow: sod.ReturnHome})
		ch <- out{m, merr}
	}()
	time.Sleep(time.Millisecond)
	close(p.release)
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(500_000)*(500_000-1)/2 + 7
	if res.I != want {
		t.Errorf("result = %d, want %d", res.I, want)
	}
	if o.m.Latency <= 0 || o.m.StateBytes <= 0 {
		t.Errorf("metrics look wrong: %+v", o.m)
	}
}

func TestCompileWithStatusChecksStillRuns(t *testing.T) {
	app := sod.CompileWith(buildApp(), sod.CompileOptions{Detection: sod.StatusChecks})
	cluster, err := sod.NewCluster(app, sod.Unlimited, sod.Node{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.On(1).BindNative("pause", func(args []sod.Value) (sod.Value, error) {
		return sod.Value{}, nil
	})
	job, err := cluster.On(1).Start("main", sod.Int(100))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.I != 100*99/2+7 {
		t.Errorf("result = %d", res.I)
	}
}

func TestCompileReportExposesTransforms(t *testing.T) {
	_, rep, err := sod.CompileReport(buildApp(), sod.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lifted := 0
	for _, mr := range rep.Methods {
		if mr.Lifted {
			lifted++
		}
	}
	if lifted < 2 {
		t.Errorf("expected both methods lifted, got %d", lifted)
	}
}

func TestUnknownNodeAndMethod(t *testing.T) {
	app := sod.Compile(buildApp())
	cluster, _ := sod.NewCluster(app, sod.Unlimited, sod.Node{ID: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("On with an unknown node should panic")
			}
		}()
		cluster.On(42)
	}()
	if _, ok := cluster.Lookup(42); ok {
		t.Error("Lookup of an unknown node should report false")
	}
	if h, ok := cluster.Lookup(1); !ok || h == nil {
		t.Error("Lookup of a known node should succeed")
	}
	if _, err := cluster.On(1).Start("nope"); err == nil {
		t.Error("unknown method should error")
	}
}
