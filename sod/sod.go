// Package sod is the public API of the stack-on-demand (SOD) execution
// engine: a Go reproduction of "A Stack-on-Demand Execution Model for
// Elastic Computing" (Ma, Lam, Wang, Zhang — ICPP 2010).
//
// The engine runs programs written for a stack-based virtual machine (the
// SVM; author them with package sodasm) on a cluster of nodes and lets a
// running thread's *top stack frames* migrate between nodes: the paper's
// lightweight alternative to process, thread, or whole-VM migration.
// Objects remain at their home node and fault in on demand through
// exception-driven object faulting; results and updated data flow back
// when a migrated segment completes.
//
// Quick start:
//
//	prog := sodasm.NewProgram()
//	... assemble ...
//	app := sod.Compile(prog.MustBuild())              // preprocess for SOD
//	cluster, _ := sod.NewCluster(app, sod.Gigabit,
//	    sod.Node{ID: 1}, sod.Node{ID: 2})
//	job, _ := cluster.On(1).Start("main", sod.Int(40))
//	cluster.On(1).Migrate(job, sod.Migration{Frames: 1, Dest: 2})
//	result, err := job.Wait()
//
// Migrations can also be automatic: AutoBalance runs an adaptive offload
// engine that watches every node's load signals and spills jobs from
// overloaded nodes onto idle ones:
//
//	b := cluster.AutoBalance(sod.ThresholdPolicy(0, 0), sod.BalanceOptions{})
//	defer b.Stop()
//
// # One client API
//
// Client is the context-aware way to drive a cluster, and the same
// interface works whether the cluster lives in this process or runs as
// sodd daemons on real sockets — code written against it does not care
// where the cluster is:
//
//	cl := cluster.Client()                  // in-process ...
//	cl, err := sod.Dial("127.0.0.1:7101")   // ... or a live daemon
//
//	h, _ := cl.Submit(ctx, "main", sod.Int(42))
//	events, _ := cl.Watch(ctx, h.ID())      // started / migrated / completed
//	result, err := h.Wait(ctx)
//
// Watch streams the job's lifecycle as it happens: where it started,
// every migration with its direction and reason (pushed by the balancer,
// stolen by an idle peer, rebalanced onward), the result flushing home,
// and completion. The sodctl binary surfaces the same stream as
// "sodctl watch -job N".
//
// See examples/ for runnable scenarios (quickstart, multi-domain
// workflow, task roaming, device offload, photo sharing, elastic
// auto-offload, distributed TCP cluster).
package sod

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
)

// Program is a compiled SVM program.
type Program = bytecode.Program

// Value is an SVM runtime value.
type Value = value.Value

// Ref is an object reference.
type Ref = value.Ref

// Int builds an integer value.
func Int(i int64) Value { return value.Int(i) }

// Float builds a float value.
func Float(f float64) Value { return value.Float(f) }

// RefVal builds a reference value.
func RefVal(r Ref) Value { return value.RefVal(r) }

// Null is the null reference value.
func Null() Value { return value.Null() }

// Link profiles.
var (
	// Gigabit models the paper's cluster interconnect.
	Gigabit = netsim.Gigabit
	// Unlimited disables bandwidth shaping.
	Unlimited = netsim.Unlimited
)

// Kbps builds a bandwidth-limited link profile (device experiments).
func Kbps(k int64) netsim.LinkSpec { return netsim.Kbps(k) }

// DetectionScheme selects how remote objects are detected after migration.
type DetectionScheme int

const (
	// ObjectFaulting is the paper's contribution: zero-cost on the normal
	// path, exception-driven fetch on first access (Fig 5 B2).
	ObjectFaulting DetectionScheme = iota
	// StatusChecks injects a test before every access (Fig 5 B1) — the
	// classical object-DSM baseline, provided for comparison.
	StatusChecks
)

// CompileOptions tunes Compile.
type CompileOptions struct {
	Detection DetectionScheme
	// NoRestoreHandlers skips the Fig 4 restoration handlers (only useful
	// for systems that rebuild frames inside the VM).
	NoRestoreHandlers bool
}

// Compile preprocesses a raw program for SOD execution: statement
// flattening (migration-safe points), object fault handlers, restoration
// handlers. The input is not modified.
func Compile(p *Program) *Program {
	return CompileWith(p, CompileOptions{})
}

// CompileWith is Compile with options.
func CompileWith(p *Program, opts CompileOptions) *Program {
	mode := preprocess.ModeFaulting
	if opts.Detection == StatusChecks {
		mode = preprocess.ModeStatusCheck
	}
	return preprocess.MustPreprocess(p, preprocess.Options{Mode: mode, Restore: !opts.NoRestoreHandlers})
}

// CompileReport returns the per-method transformation report alongside the
// compiled program.
func CompileReport(p *Program, opts CompileOptions) (*Program, *preprocess.Report, error) {
	mode := preprocess.ModeFaulting
	if opts.Detection == StatusChecks {
		mode = preprocess.ModeStatusCheck
	}
	return preprocess.Preprocess(p, preprocess.Options{Mode: mode, Restore: !opts.NoRestoreHandlers})
}

// Node configures one cluster node. Every node runs the full SOD stack;
// a weak device, such as the photo-sharing handset, is a node with a
// high Slow.
type Node struct {
	ID int
	// HeapLimit bounds the node's heap in bytes (0 = unlimited).
	HeapLimit int64
	// Cold starts the node without application classes; they ship on
	// demand when work arrives (the default for worker nodes is warm).
	Cold bool
	// Cores models the node's CPU width: at most Cores threads execute at
	// once, the rest queue (0 = unlimited). Give a weak node one core and
	// a burst of jobs visibly stacks up — the elastic scenario.
	Cores int
	// Slow throttles the node's per-instruction speed (busy-wait spin
	// iterations; 0 = full speed) — the weak-device CPU knob.
	Slow int
}

// Cluster is a set of SOD nodes over a shared fabric.
type Cluster struct {
	inner *sodee.Cluster

	// bal is the most recently started AutoBalance engine; Client.Stats
	// reads its counters.
	mu  sync.Mutex
	bal *Balancer
}

// NewCluster builds a cluster running prog (compile it first) with the
// given link profile between all nodes.
func NewCluster(prog *Program, link netsim.LinkSpec, nodes ...Node) (*Cluster, error) {
	cfgs := make([]sodee.NodeConfig, 0, len(nodes))
	for _, n := range nodes {
		cfgs = append(cfgs, sodee.NodeConfig{
			ID:        n.ID,
			HeapLimit: n.HeapLimit,
			Preloaded: !n.Cold,
			Cores:     n.Cores,
			Slow:      n.Slow,
		})
	}
	inner, err := sodee.NewCluster(prog, link, cfgs...)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// SetLink overrides the link profile between two nodes.
func (c *Cluster) SetLink(a, b int, link netsim.LinkSpec) { c.inner.Net.SetLink(a, b, link) }

// Network exposes the underlying fabric (for NFS setup and stats).
func (c *Cluster) Network() *netsim.Network { return c.inner.Net }

// On returns the handle for node id. It panics on an unknown id: every
// call site chains straight into an operation (cluster.On(1).Start(...)),
// so returning nil — as this method once did — only deferred the crash to
// an opaque nil dereference. Use Lookup for the soft-failure form.
func (c *Cluster) On(id int) *NodeHandle {
	h, ok := c.Lookup(id)
	if !ok {
		panic(fmt.Sprintf("sod: cluster has no node %d", id))
	}
	return h
}

// Lookup returns the handle for node id, reporting whether it exists.
func (c *Cluster) Lookup(id int) (*NodeHandle, bool) {
	n, ok := c.inner.Nodes[id]
	if !ok {
		return nil, false
	}
	return &NodeHandle{n: n}, true
}

// Internal returns the underlying runtime cluster for advanced use (the
// experiment harness).
func (c *Cluster) Internal() *sodee.Cluster { return c.inner }

// NodeHandle operates one node.
type NodeHandle struct {
	n *sodee.Node
}

// ID returns the node id.
func (h *NodeHandle) ID() int { return h.n.ID }

// VM exposes the node's virtual machine (to bind natives, allocate
// arguments, inspect the heap).
func (h *NodeHandle) VM() *vm.VM { return h.n.VM }

// Intern returns an interned string object on this node.
func (h *NodeHandle) Intern(s string) Value { return value.RefVal(h.n.VM.Intern(s)) }

// Runtime exposes the node's migration manager for advanced scenarios.
func (h *NodeHandle) Runtime() *sodee.Manager { return h.n.Mgr }

// NativeFunc is a simplified native-method implementation for
// applications built on the public API. Errors surface as
// IllegalStateException in the running program.
type NativeFunc func(args []Value) (Value, error)

// BindNative installs fn as the implementation of a declared native on
// this node.
func (h *NodeHandle) BindNative(name string, fn NativeFunc) {
	h.n.VM.BindNativeIfDeclared(name, func(t *vm.Thread, args []Value) (Value, *vm.Raised) {
		res, err := fn(args)
		if err != nil {
			return Value{}, &vm.Raised{ExClass: bytecode.ExIllegalState, Message: err.Error()}
		}
		return res, nil
	})
}

// Start launches a job executing the named method with args.
func (h *NodeHandle) Start(method string, args ...Value) (*Job, error) {
	j, err := h.n.Mgr.StartJob(method, args...)
	if err != nil {
		return nil, err
	}
	return &Job{inner: j}, nil
}

// Flow selects what happens after a migrated segment completes.
type Flow = sodee.Flow

// Migration flows (Fig 1 of the paper).
const (
	// ReturnHome: the segment's return value comes back; execution resumes
	// on the residual stack at the home node (Fig 1a).
	ReturnHome = sodee.FlowReturnHome
	// Total: the residual stack follows; execution continues at the
	// destination (Fig 1b).
	Total = sodee.FlowTotal
	// Forward: the residual is planted on a third node and control flows
	// there after the segment pops (Fig 1c).
	Forward = sodee.FlowForward
)

// Migration describes one stack-on-demand migration.
type Migration struct {
	// Frames is the segment size: how many top frames to export.
	Frames int
	// Dest runs the segment.
	Dest int
	// Flow defaults to ReturnHome.
	Flow Flow
	// ForwardTo hosts the residual when Flow == Forward.
	ForwardTo int
}

// Metrics is the cost breakdown of one migration.
type Metrics = sodee.MigrationMetrics

// Migrate performs a SOD migration of the job's running thread: the
// thread is suspended at its next migration-safe point, the top Frames
// frames are captured and shipped, and execution resumes at Dest.
func (h *NodeHandle) Migrate(job *Job, m Migration) (*Metrics, error) {
	return h.n.Mgr.MigrateSOD(job.inner, sodee.SODOptions{
		NFrames: m.Frames, Dest: m.Dest, Flow: m.Flow, ForwardTo: m.ForwardTo,
	})
}

// Job is a running (possibly migrating) computation.
type Job struct {
	inner *sodee.Job
}

// ID returns the job's identity at its origin node (the id Client.Watch
// takes).
func (j *Job) ID() uint64 { return j.inner.ID }

// Wait blocks for the job's final result, wherever it completes.
func (j *Job) Wait() (Value, error) { return j.inner.Wait() }

// WaitContext blocks for the final result or the context's end, whichever
// comes first. No goroutine is spawned; an abandoned wait leaks nothing.
// A ctx error means the wait ended — the job itself is still running.
func (j *Job) WaitContext(ctx context.Context) (Value, error) {
	return j.inner.WaitContext(ctx)
}

// Done reports completion without blocking.
func (j *Job) Done() bool { return j.inner.Done() }

// --- adaptive offload (the policy engine) ---

// Policy decides when and where running jobs migrate; see package
// internal/policy for the contract. Built-in policies: ThresholdPolicy,
// CostModelPolicy, RoundRobinPolicy.
type Policy = policy.Policy

// Signals is one node's published load report.
type Signals = policy.Signals

// Balancer is a running adaptive-offload engine; Stop halts it.
type Balancer = sodee.Balancer

// BalanceOptions tunes AutoBalance; the zero value gives a 1ms decision
// interval and whole-stack return-home migrations. Set Steal to arm the
// pull half (idle nodes steal from loaded peers); HopBudget and Cooldown
// bound multi-hop re-balancing (how many times any one job may move, and
// how soon it may revisit a node it left).
type BalanceOptions = sodee.BalanceOptions

// StealStats counts one node's work-stealing activity (requests sent and
// won, served, granted, denied, failed transfers).
type StealStats = sodee.StealStats

// NeverPolicy never pushes: combine with BalanceOptions.Steal for a
// steal-only balancer where migration is purely pull-driven, or with
// BalanceOptions.Chain for a chain-only balancer where the planner owns
// every placement.
func NeverPolicy() Policy { return policy.Never{} }

// ChainPlanner tunes the workflow chain planner armed by
// BalanceOptions.Chain: how many segments a stack may split into, the
// minimum depth and throughput gain worth chaining, and the RTT/locality
// weights used to rank destination nodes. The zero value selects
// defaults. Jobs opt in per submission via Client.SubmitChain (or every
// job with BalanceOptions.ChainAll); the planner splits a chained job's
// parked stack by per-frame cost, plants each residual segment on its
// node ahead of execution (Fig 1c), and the balancer re-plans or degrades
// links when nodes fail mid-chain — a crash never wedges the chain.
type ChainPlanner = policy.ChainPlanner

// BalanceStats aggregates a balancer's activity.
type BalanceStats = sodee.BalanceStats

// ThresholdPolicy migrates when the local node has more than highWater
// runnable threads and some peer has at least margin fewer (0s =
// defaults: 1 and 2). The watermark baseline.
func ThresholdPolicy(highWater, margin int) Policy {
	return policy.Threshold{HighWater: highWater, Margin: margin}
}

// CostModelPolicy weighs throughput gain, object-fault locality and link
// RTT and migrates when the net score clears minGain (0 = default 0.25).
func CostModelPolicy(minGain float64) Policy {
	return policy.CostModel{MinGain: minGain}
}

// RoundRobinPolicy scatters jobs over peers blindly — the baseline the
// adaptive policies are measured against.
func RoundRobinPolicy() Policy { return &policy.RoundRobin{} }

// AutoBalance starts the adaptive offload engine: nodes gossip load
// signals every interval, and p decides per running job whether to stay
// or migrate and where. Verdicts execute as whole-stack SOD migrations;
// unreachable destinations are marked failed and never chosen again, and
// a migration that fails in flight falls back to local execution. With
// opts.Steal set, idle nodes additionally pull jobs from loaded peers
// (work stealing), and migrated-in jobs remain eligible for further
// moves within opts.HopBudget and opts.Cooldown — results still flush
// straight back to each job's origin. Stop the returned Balancer when
// done.
func (c *Cluster) AutoBalance(p Policy, opts BalanceOptions) *Balancer {
	b := c.inner.AutoBalance(p, opts)
	c.mu.Lock()
	c.bal = b
	c.mu.Unlock()
	return b
}
