// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV). Each driver builds the cluster(s) its experiment
// needs, runs the workload(s) with and without migration, and returns
// structured rows; bench_test.go and cmd/sodbench render them.
//
// Absolute durations differ from the paper (interpreter vs 2009 JIT,
// scaled problem and data sizes — see EXPERIMENTS.md), but the comparative
// shapes — which system wins where, by roughly what factor — are the
// reproduction targets.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// progFor preprocesses a workload for a system, mirroring what each
// paper system's toolchain does to application code.
func progFor(sys sodee.System, w *workloads.Workload) *bytecode.Program {
	switch sys {
	case sodee.SysSODEE, sodee.SysDevice:
		return preprocess.MustPreprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	case sodee.SysGJavaMPI:
		return preprocess.MustPreprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeNone, Restore: true})
	case sodee.SysJessica2:
		return preprocess.MustPreprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeStatusCheck, Restore: false})
	default: // JDK, Xen run the original code
		return w.Prog
	}
}

// checkpointGate blocks the workload at its wl_checkpoint and hands
// control to the driver, which aligns migration with the compute phase.
type checkpointGate struct {
	mu      sync.Mutex
	reached chan struct{}
	release chan struct{}
	armed   bool
}

func newCheckpointGate(armed bool) *checkpointGate {
	return &checkpointGate{
		reached: make(chan struct{}, 16),
		release: make(chan struct{}, 16),
		armed:   armed,
	}
}

func (g *checkpointGate) native(t *vm.Thread, args []value.Value) (value.Value, *vm.Raised) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.reached <- struct{}{}
		<-g.release
	}
	return value.Value{}, nil
}

func (g *checkpointGate) disarm() {
	g.mu.Lock()
	g.armed = false
	g.mu.Unlock()
}

// KernelRun is the outcome of one measured kernel execution.
type KernelRun struct {
	System   sodee.System
	Migrated bool
	Elapsed  time.Duration
	Result   value.Value
	Metrics  sodee.MigrationMetrics
}

// migrator issues the system's migration primitive during a gated run.
type migrator func(home *sodee.Node, guest *xenGuest, job *sodee.Job, w *workloads.Workload) (*sodee.MigrationMetrics, error)

func migratorFor(sys sodee.System) migrator {
	switch sys {
	case sodee.SysSODEE:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, w *workloads.Workload) (*sodee.MigrationMetrics, error) {
			return home.Mgr.MigrateSOD(job, sodee.SODOptions{
				NFrames: w.MigrateFrames, Dest: 2, Flow: sodee.FlowReturnHome,
			})
		}
	case sodee.SysGJavaMPI:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, _ *workloads.Workload) (*sodee.MigrationMetrics, error) {
			return migrateProcess(home, job, 2)
		}
	case sodee.SysJessica2:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, _ *workloads.Workload) (*sodee.MigrationMetrics, error) {
			return migrateThread(home, job, 2)
		}
	case sodee.SysXen:
		return func(home *sodee.Node, guest *xenGuest, job *sodee.Job, _ *workloads.Workload) (*sodee.MigrationMetrics, error) {
			return migrateVM(home, guest, job, 2)
		}
	}
	return nil
}

// RunKernel executes workload w once on a two-node cluster of the given
// system, optionally migrating once at the workload's checkpoint.
func RunKernel(sys sodee.System, w *workloads.Workload, n int64, migrate bool) (*KernelRun, error) {
	prog := progFor(sys, w)
	cluster, err := sodee.NewCluster(prog, netsim.Gigabit,
		sodee.NodeConfig{ID: 1, System: sys, Preloaded: true},
		sodee.NodeConfig{ID: 2, System: sys, Preloaded: sys != sodee.SysSODEE},
	)
	if err != nil {
		return nil, err
	}
	guests := serveBaselines(cluster, 16<<20)
	gate := newCheckpointGate(migrate)
	for _, node := range cluster.Nodes {
		workloads.BindCommon(node.VM)
		node.VM.BindNativeIfDeclared(workloads.CheckpointNative, gate.native)
	}
	home := cluster.Nodes[1]

	start := time.Now()
	job, err := home.Mgr.StartJob(w.Entry, w.Args(n)...)
	if err != nil {
		return nil, err
	}

	var mm *sodee.MigrationMetrics
	if migrate {
		mig := migratorFor(sys)
		if mig == nil {
			return nil, fmt.Errorf("experiments: system %v has no migration primitive", sys)
		}
		<-gate.reached
		gate.disarm()
		done := make(chan error, 1)
		go func() {
			var merr error
			mm, merr = mig(home, guests[home.ID], job, w)
			done <- merr
		}()
		if sys != sodee.SysXen {
			// Give the suspend request a moment to land before the thread
			// leaves the checkpoint (Xen migrates live; no ordering needed).
			time.Sleep(time.Millisecond)
		}
		gate.release <- struct{}{}
		if merr := <-done; merr != nil {
			return nil, merr
		}
	}

	res, err := job.Wait()
	if err != nil {
		return nil, err
	}
	kr := &KernelRun{System: sys, Migrated: migrate, Elapsed: time.Since(start), Result: res}
	if mm != nil {
		kr.Metrics = *mm
	}
	return kr, nil
}

// RunJDKReference runs the original (unpreprocessed) program on a bare VM
// with no agent — the paper's "JDK" column.
func RunJDKReference(w *workloads.Workload, n int64) (*KernelRun, error) {
	v := vm.New(w.Prog, 1, true)
	workloads.BindCommon(v)
	start := time.Now()
	res, err := v.RunMain(w.Prog.MethodByName(w.Entry), w.Args(n)...)
	if err != nil {
		return nil, err
	}
	return &KernelRun{System: sodee.SysJDK, Elapsed: time.Since(start), Result: res}, nil
}

// AllSystems lists the comparison systems in paper order.
var AllSystems = []sodee.System{sodee.SysSODEE, sodee.SysGJavaMPI, sodee.SysJessica2, sodee.SysXen}
