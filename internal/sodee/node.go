// Package sodee is the SOD Execution Engine: the distributed runtime of
// §III that ties the SVM, the tool interface, the class preprocessor, the
// object manager and the network into migration-capable nodes, with the
// paper's SOD migration manager on each. Every node runs the same system;
// NodeConfig describes only its platform (cores, speed, heap, and whether
// it has a tool interface). The paper's comparison systems are modelled
// in internal/experiments, and no runtime node serves their migrations.
package sodee

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/objman"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/toolif"
	"repro/internal/value"
	"repro/internal/vm"
)

// NodeConfig configures one node of a cluster.
type NodeConfig struct {
	ID int
	// Agentless models a platform with no tool interface (§IV.D: JamVM on
	// a handset). The node attaches no agent, so it cannot capture state;
	// it restores migrated-in frames directly, speaks Java serialization
	// on the wire, and charges its Java-level restore at Slow per unit of
	// work.
	Agentless bool
	// HeapLimit bounds the node's heap (0 = unlimited) — resource-poor
	// devices and the exception-driven offload scenario use it.
	HeapLimit int64
	// Preloaded controls whether all classes are resident at startup.
	// Destination workers start cold and fetch classes on demand.
	Preloaded bool
	// Cores models the node's CPU width: at most Cores threads execute
	// bytecode at once, the rest queue (0 = unlimited). The elastic
	// experiments give the weak node one core so a job burst visibly
	// stacks up.
	Cores int
	// Slow throttles the node's per-instruction speed with a busy-wait of
	// this many spin iterations (0 = full speed) — a weak-device CPU knob.
	// A slow node still runs the full migration stack unless it is also
	// Agentless.
	Slow int
	// Membership tunes the node's failure detector (zero = defaults).
	Membership membership.Options
}

// Node is one machine of the cluster. EP is the node's attachment to
// whatever fabric the cluster runs over — the simulated network or real
// TCP sockets; everything above speaks the Transport interface only.
type Node struct {
	ID     int
	Prog   *bytecode.Program
	VM     *vm.VM
	Agent  *toolif.Agent
	EP     netsim.Transport
	ObjMan *objman.Manager
	Codec  serial.Codec

	// restoreEx is the one InvalidStateException object every breakpoint-
	// driven restoration on this node raises; the injected handler only
	// pops it, so sharing it keeps restores from growing the heap.
	restoreEx value.Ref

	// Members is the node's liveness view of its peers: heartbeats
	// piggybacked on load gossip keep peers Alive, silence and send
	// failures escalate them to Suspect then Dead. The balancer feeds
	// these verdicts into the failure-aware scheduler.
	Members *membership.Tracker

	// Obs is the node's metrics registry; Trace collects span timelines
	// for jobs whose origin is this node. Both are always on — the hot
	// paths pay striped atomic adds only.
	Obs   *obs.Registry
	Trace *obs.TraceStore

	// Cores and Speed echo the capacity configuration for load signals:
	// Cores is the modeled CPU width (0 = unlimited), Speed the relative
	// per-core execution speed (1.0 = full speed; throttled nodes less).
	Cores int
	Speed float64
	// slow is the configured throttle; an agentless node also charges its
	// Java-level restores at it.
	slow int

	// Cluster back-pointer (set by AddNode) for peer metadata lookups.
	Cluster *Cluster

	Mgr *Manager
}

// Cluster is a set of nodes sharing one program and one fabric. Net is
// the simulated network when the cluster was built with NewCluster; a
// transport cluster (real TCP daemons, one local node per process)
// leaves it nil, and everything in the runtime must go through each
// node's Transport instead.
type Cluster struct {
	Net   *netsim.Network
	Prog  *bytecode.Program
	Nodes map[int]*Node
}

// NewCluster builds a cluster of nodes running prog (already preprocessed
// as appropriate for the systems under test) over a simulated fabric.
func NewCluster(prog *bytecode.Program, link netsim.LinkSpec, configs ...NodeConfig) (*Cluster, error) {
	c := &Cluster{
		Net:   netsim.NewNetwork(link),
		Prog:  prog,
		Nodes: make(map[int]*Node, len(configs)),
	}
	for _, cfg := range configs {
		n, err := c.AddNode(cfg)
		if err != nil {
			return nil, err
		}
		c.Nodes[cfg.ID] = n
	}
	return c, nil
}

// NewTransportCluster builds a cluster shell with no simulated fabric;
// nodes are attached to explicit transports with AddNodeOn. This is the
// construction the TCP daemons use: each process holds one local node,
// and the peer set lives in the node's membership tracker rather than in
// Nodes.
func NewTransportCluster(prog *bytecode.Program) *Cluster {
	return &Cluster{Prog: prog, Nodes: make(map[int]*Node)}
}

// AddNode creates one node attached to the cluster's simulated fabric.
func (c *Cluster) AddNode(cfg NodeConfig) (*Node, error) {
	if c.Net == nil {
		return nil, fmt.Errorf("sodee: cluster has no simulated fabric; use AddNodeOn")
	}
	n, err := c.AddNodeOn(cfg, c.Net.Node(cfg.ID))
	if err != nil {
		return nil, err
	}
	// In-process clusters know the full roster up front: register every
	// pair in each other's membership view.
	now := time.Now()
	for id, o := range c.Nodes {
		if id == n.ID {
			continue
		}
		o.Members.Join(n.ID, now)
		n.Members.Join(id, now)
	}
	return n, nil
}

// AddNodeOn creates and wires one node speaking tr.
func (c *Cluster) AddNodeOn(cfg NodeConfig, tr netsim.Transport) (*Node, error) {
	if _, dup := c.Nodes[cfg.ID]; dup {
		return nil, fmt.Errorf("sodee: duplicate node id %d", cfg.ID)
	}
	if tr.NodeID() != cfg.ID {
		return nil, fmt.Errorf("sodee: node id %d does not match transport id %d", cfg.ID, tr.NodeID())
	}
	v := vm.New(c.Prog, cfg.ID, cfg.Preloaded)
	// Suspension works on every node: through the tool agent, or, on an
	// agentless node, through §IV.D's retrofitted pure-Java migration
	// manager.
	v.Profile.AgentLoaded = true
	if cfg.HeapLimit > 0 {
		v.Heap.SetLimit(cfg.HeapLimit)
	}
	if cfg.Cores > 0 {
		v.CPU = vm.NewCPUGate(cfg.Cores)
	}
	speed := 1.0
	if cfg.Slow > 0 {
		// The speed hint is a rough conversion of spin iterations to
		// instruction-cost multiples; policies use it ordinally, not
		// quantitatively.
		slow := cfg.Slow
		v.Profile.InstrHook = func(t *vm.Thread, f *vm.Frame, ins bytecode.Instr) *vm.Raised {
			vm.Spin(slow)
			return nil
		}
		speed = 1 / (1 + float64(slow)/6)
	}
	ep := tr
	codec := serial.Fast
	if cfg.Agentless {
		codec = serial.JavaSer
	}
	n := &Node{
		ID:      cfg.ID,
		Prog:    c.Prog,
		VM:      v,
		EP:      ep,
		Codec:   codec,
		Cores:   cfg.Cores,
		Speed:   speed,
		slow:    cfg.Slow,
		Cluster: c,
		Members: membership.New(cfg.ID, cfg.Membership),
		Obs:     obs.NewRegistry(),
		Trace:   obs.NewTraceStore(),
	}
	n.Members.OnChange(func(ev membership.Event) {
		n.Obs.Counter(obs.Label("sod_member_transitions_total", "state", ev.State.String())).Inc()
	})
	if !cfg.Agentless {
		n.Agent = toolif.Attach(v)
		n.restoreEx = v.AllocException(bytecode.ExInvalidState, "")
	}
	n.ObjMan = objman.New(v, c.Prog, ep, codec)
	n.ObjMan.BindNatives(v)
	bindRestoreNatives(v)
	n.Mgr = newManager(n)

	// Class-shipping hook: cold classes are fetched from the job's home
	// node (recorded per-node when a migration arrives).
	v.LoadHook = n.Mgr.classLoadHook

	c.Nodes[cfg.ID] = n
	return n, nil
}

// Reset clears per-job node state (caches, heap) so a cluster can be
// reused across benchmark iterations.
func (n *Node) Reset() {
	n.ObjMan.ResetCache()
	n.Mgr.reset()
}
