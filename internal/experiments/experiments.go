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

// System names one of the systems the paper evaluates (§IV). Only the
// experiment drivers know them: every node is a plain runtime node, and a
// system is the program variant, execution profile and migration driver
// the drivers pick for it.
type System int

const (
	// SysSODEE is the paper's system: tool agent, object faulting,
	// breakpoint-driven restoration, fast codec.
	SysSODEE System = iota
	// SysJDK is the plain reference VM: no agent, no migration.
	SysJDK
	// SysGJavaMPI migrates whole processes eagerly over the debugger
	// interface with Java serialization.
	SysGJavaMPI
	// SysJessica2 migrates threads inside the VM: direct capture and
	// restore, a slower engine (the old Kaffe JIT), status-check DSM,
	// eager static allocation.
	SysJessica2
	// SysXen live-migrates the OS image with iterative pre-copy and pays
	// virtualization overhead on execution.
	SysXen
)

func (s System) String() string {
	switch s {
	case SysJDK:
		return "JDK"
	case SysSODEE:
		return "SODEE"
	case SysGJavaMPI:
		return "G-JavaMPI"
	case SysJessica2:
		return "JESSICA2"
	case SysXen:
		return "Xen"
	}
	return "unknown"
}

// MigrationMetrics is one migration's cost as a comparison driver
// reports it: the runtime's breakdown plus what only the eager-copy and
// pre-copy systems have.
type MigrationMetrics struct {
	sodee.MigrationMetrics
	HeapBytes int64         // eager-copy systems only
	Rounds    int           // pre-copy rounds (Xen)
	Freeze    time.Duration // guest stopped, Xen only: the others are frozen for their whole Latency
}

// progFor preprocesses a workload for a system, mirroring what each
// paper system's toolchain does to application code.
func progFor(sys System, w *workloads.Workload) *bytecode.Program {
	switch sys {
	case SysSODEE:
		return preprocess.MustPreprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	case SysGJavaMPI:
		return preprocess.MustPreprocess(w.Prog, preprocess.Options{Mode: preprocess.ModeNone, Restore: true})
	case SysJessica2:
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

// releaseParked lets th leave the checkpoint toward a migration the
// driver has just started. The migration's own suspend request gets a
// millisecond to land first, so the capture it times includes bringing
// the running thread to a safe point. A request of the driver's own then
// makes sure th parks at its next safe point even when the migration's
// has not landed yet, instead of running past the capture point.
func (g *checkpointGate) releaseParked(th *vm.Thread) error {
	time.Sleep(time.Millisecond)
	if _, err := th.RequestSuspend(); err != nil {
		return err
	}
	g.release <- struct{}{}
	return nil
}

// KernelRun is the outcome of one measured kernel execution.
type KernelRun struct {
	System   System
	Migrated bool
	Elapsed  time.Duration
	Result   value.Value
	Metrics  MigrationMetrics
}

// migrator issues the system's migration primitive during a gated run.
type migrator func(home *sodee.Node, guest *xenGuest, job *sodee.Job, w *workloads.Workload) (*MigrationMetrics, error)

func migratorFor(sys System) migrator {
	switch sys {
	case SysSODEE:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, w *workloads.Workload) (*MigrationMetrics, error) {
			mm, err := home.Mgr.MigrateSOD(job, sodee.SODOptions{
				NFrames: w.MigrateFrames, Dest: 2, Flow: sodee.FlowReturnHome,
			})
			if err != nil {
				return nil, err
			}
			return &MigrationMetrics{MigrationMetrics: *mm}, nil
		}
	case SysGJavaMPI:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, _ *workloads.Workload) (*MigrationMetrics, error) {
			return migrateProcess(home, job, 2)
		}
	case SysJessica2:
		return func(home *sodee.Node, _ *xenGuest, job *sodee.Job, _ *workloads.Workload) (*MigrationMetrics, error) {
			return migrateThread(home, job, 2)
		}
	case SysXen:
		return func(home *sodee.Node, guest *xenGuest, job *sodee.Job, _ *workloads.Workload) (*MigrationMetrics, error) {
			return migrateVM(home, guest, job, 2)
		}
	}
	return nil
}

// RunKernel executes workload w once on a two-node cluster of the given
// system, optionally migrating once at the workload's checkpoint.
func RunKernel(sys System, w *workloads.Workload, n int64, migrate bool) (*KernelRun, error) {
	prog := progFor(sys, w)
	cluster, err := sodee.NewCluster(prog, netsim.Gigabit,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: sys != SysSODEE},
	)
	if err != nil {
		return nil, err
	}
	guests := serveBaselines(cluster, sys, 16<<20)
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

	var mm *MigrationMetrics
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
		if sys == SysXen {
			gate.release <- struct{}{} // Xen migrates live
		} else if err := gate.releaseParked(job.Thread()); err != nil {
			return nil, err
		}
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
	return &KernelRun{System: SysJDK, Elapsed: time.Since(start), Result: res}, nil
}

// AllSystems lists the comparison systems in paper order.
var AllSystems = []System{SysSODEE, SysGJavaMPI, SysJessica2, SysXen}
