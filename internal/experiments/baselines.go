package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/netsim"
	"repro/internal/serial"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/wire"
)

// This file implements the three comparison systems of §IV: G-JavaMPI
// eager-copy process migration, JESSICA2 in-VM thread migration and
// Xen-style pre-copy live VM migration. They exist only on the clusters
// the experiment drivers build: serveBaselines registers their receiving
// handlers there, and a runtime node serves none of their messages.

// serveBaselines readies every node of c to run as sys: it installs the
// system's execution profile, registers the handler that receives its
// migrations, and boots a guest image of imageBytes on every Xen node. It
// returns the Xen guests by node id. Call it before any job starts:
// threads copy the profile's hook when they start, and the guests observe
// heap writes through the nodes' write hooks.
func serveBaselines(c *sodee.Cluster, sys System, imageBytes int64) map[int]*xenGuest {
	guests := make(map[int]*xenGuest)
	for id, n := range c.Nodes {
		switch sys {
		case SysGJavaMPI:
			n.EP.Handle(netsim.KindProcMigrate, func(from int, payload []byte) ([]byte, error) {
				return handleProcMigrate(n, payload)
			})
		case SysJessica2:
			n.VM.Profile.InstrHook = func(t *vm.Thread, f *vm.Frame, ins bytecode.Instr) *vm.Raised {
				vm.Spin(jessicaSpinPerInstr)
				return nil
			}
			n.EP.Handle(netsim.KindThreadMigrate, func(from int, payload []byte) ([]byte, error) {
				return handleThreadMigrate(n, payload)
			})
		case SysXen:
			var ctr int
			n.VM.Profile.InstrHook = func(t *vm.Thread, f *vm.Frame, ins bytecode.Instr) *vm.Raised {
				ctr++
				if ctr >= xenInstrPerExit {
					ctr = 0
					vm.Spin(xenSpinPerExit)
				}
				return nil
			}
			n.EP.Handle(netsim.KindPage, handlePage)
			g := newXenGuest(imageBytes, id)
			n.VM.Heap.WriteHook = func(ref value.Ref, o *vm.Object) { g.touch(ref, o.ByteSize()) }
			guests[id] = g
		}
	}
	return guests
}

// Execution-profile costs. Values are chosen so the relative slowdowns
// land in the paper's observed ranges: JESSICA2 ~4-20× JDK depending on
// workload, Xen ~1.5-2×.
const (
	jessicaSpinPerInstr = 14
	xenSpinPerExit      = 12000
	xenInstrPerExit     = 4096
)

// encodeReply and decodeReply carry a destination's arrival time and
// restore duration back to the migrating node.
func encodeReply(arrival time.Time, restore time.Duration) []byte {
	w := wire.NewWriter(24)
	w.Fixed64(uint64(arrival.UnixNano()))
	w.Uvarint(uint64(restore))
	return w.Bytes()
}

func decodeReply(reply []byte) (arrival time.Time, restore time.Duration, err error) {
	r := wire.NewReader(reply)
	arrival = time.Unix(0, int64(r.Fixed64()))
	restore = time.Duration(r.Uvarint())
	return arrival, restore, r.Err()
}

// --- G-JavaMPI: eager-copy process migration ---

// migrateProcess moves the *entire* process — full stack, full heap, all
// statics — from n to dest, with every object exported through Java
// serialization, exactly the cost profile §IV.A attributes to G-JavaMPI.
func migrateProcess(n *sodee.Node, job *sodee.Job, dest int) (*MigrationMetrics, error) {
	th := job.Thread()
	if th == nil || n.Agent == nil {
		return nil, fmt.Errorf("experiments: process migration unavailable on node %d", n.ID)
	}
	t0 := time.Now()
	parked, err := n.Agent.SuspendAtSafePoint(th)
	if err != nil {
		return nil, err
	}
	if !parked {
		return nil, fmt.Errorf("experiments: thread finished before suspension")
	}

	// Full-stack capture through the debugger interface.
	cs, err := sodee.CaptureSegment(n.Agent, th, 0, th.Depth(), n.ID)
	if err != nil {
		_ = th.Resume()
		return nil, err
	}
	// Eager copy: statics of every loaded class...
	cs.Statics = cs.Statics[:0]
	for cid := range n.VM.Statics {
		if n.VM.ClassLoaded(int32(cid)) && len(n.VM.Statics[cid]) > 0 {
			cs.Statics = append(cs.Statics, serial.ClassStatics{
				ClassID: int32(cid), Values: append([]value.Value(nil), n.VM.Statics[cid]...),
			})
		}
	}
	// ...and the whole heap, serialized object by object.
	var heap []serial.WireObject
	n.VM.Heap.ForEach(func(ref value.Ref, o *vm.Object) bool {
		heap = append(heap, serial.SnapshotObject(ref, o))
		return true
	})
	captureDone := time.Now()

	job.Detach()
	if err := th.Kill(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(1 << 16)
	w.Varint(int64(n.ID))
	w.Uvarint(job.ID)
	w.Blob(serial.EncodeCapturedState(cs, n.Prog, serial.JavaSer))
	w.Uvarint(uint64(len(heap)))
	for i := range heap {
		w.Blob(serial.EncodeObject(&heap[i], n.Prog, serial.JavaSer))
	}
	// All classes ship with the process image.
	var classBytes int64
	w.Uvarint(uint64(len(n.Prog.Classes)))
	for cid := range n.Prog.Classes {
		cb := serial.EncodeClass(n.Prog, int32(cid))
		classBytes += int64(len(cb))
		w.Blob(cb)
	}
	payload := w.Bytes()

	sendStart := time.Now()
	reply, err := n.EP.Call(dest, netsim.KindProcMigrate, payload)
	if err != nil {
		return nil, err
	}
	arrival, restoreDur, err := decodeReply(reply)
	if err != nil {
		return nil, err
	}
	mm := &MigrationMetrics{MigrationMetrics: sodee.MigrationMetrics{
		Capture:    captureDone.Sub(t0),
		Transfer:   arrival.Sub(sendStart),
		Restore:    restoreDur,
		StateBytes: int64(len(payload)),
		ClassBytes: classBytes,
	}, HeapBytes: n.VM.Heap.Bytes()}
	mm.Latency = mm.Capture + mm.Transfer + mm.Restore
	return mm, nil
}

func handleProcMigrate(n *sodee.Node, payload []byte) ([]byte, error) {
	arrival := time.Now()
	r := wire.NewReader(payload)
	homeNode := int(r.Varint())
	jobToken := r.Uvarint()
	csBuf := r.BlobView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cs, err := serial.DecodeCapturedState(csBuf, n.Prog, serial.JavaSer)
	if err != nil {
		return nil, err
	}
	var heap []serial.WireObject
	for i, nh := 0, int(r.Uvarint()); i < nh && r.Err() == nil; i++ {
		wo, derr := serial.DecodeObject(r.BlobView(), n.Prog, serial.JavaSer)
		if derr != nil {
			return nil, derr
		}
		heap = append(heap, wo)
	}
	for i, nc := 0, int(r.Uvarint()); i < nc && r.Err() == nil; i++ {
		bundle, derr := serial.DecodeClass(r.BlobView())
		if derr != nil {
			return nil, derr
		}
		if err := bundle.VerifyAgainst(n.Prog); err != nil {
			return nil, err
		}
		n.VM.MarkLoaded(bundle.Class.ID)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	restoreStart := time.Now()
	// Re-home the entire heap: allocate local twins, then rewrite every
	// reference (objects, locals, statics) through the remap — after this
	// the process is fully local, no faulting needed.
	remap := make(map[value.Ref]value.Ref, len(heap))
	for i := range heap {
		o := heap[i].Materialize()
		o.Home = value.NullRef
		local, aerr := n.VM.Heap.Adopt(o)
		if aerr != nil {
			return nil, aerr
		}
		remap[heap[i].Ref] = local
	}
	translate := func(v value.Value) value.Value {
		if v.Kind == value.KindRef {
			if nr, ok := remap[v.R]; ok {
				return value.RefVal(nr)
			}
		}
		return v
	}
	for _, old := range heap {
		o := n.VM.Heap.MustGet(remap[old.Ref])
		for j := range o.Fields {
			o.Fields[j] = translate(o.Fields[j])
		}
		for j := range o.AR {
			o.AR[j] = translate(value.RefVal(o.AR[j])).R
		}
	}
	for fi := range cs.Frames {
		for j := range cs.Frames[fi].Locals {
			cs.Frames[fi].Locals[j] = translate(cs.Frames[fi].Locals[j])
		}
	}
	for si := range cs.Statics {
		for j := range cs.Statics[si].Values {
			cs.Statics[si].Values[j] = translate(cs.Statics[si].Values[j])
		}
	}

	// G-JavaMPI restores through the same debugger interface + injected
	// handlers as SODEE.
	th, rc, err := sodee.RestoreByBreakpoints(n, cs)
	if err != nil {
		return nil, err
	}
	n.Mgr.RunRestored(th, homeNode, jobToken)
	restoreDur, err := rc.Wait(restoreStart)
	if err != nil {
		return nil, err
	}
	return encodeReply(arrival, restoreDur), nil
}

// --- JESSICA2: in-VM thread migration ---

// staticArray is the shape of one static array at the home node.
type staticArray struct {
	kind   int32
	length int64
}

// staticArrays lists the static arrays the captured statics reference,
// letting the JESSICA2 destination model eager allocation of static
// arrays at class-load time (§IV.A's explanation of its long FFT restore
// time).
func staticArrays(v *vm.VM, cs *serial.CapturedState) []staticArray {
	var out []staticArray
	for _, st := range cs.Statics {
		for _, sv := range st.Values {
			if sv.Kind != value.KindRef || sv.R == value.NullRef {
				continue
			}
			if o := v.Heap.Get(sv.R); o != nil && o.IsArray {
				out = append(out, staticArray{kind: o.AKind, length: int64(o.Len())})
			}
		}
	}
	return out
}

// migrateThread performs JESSICA2-style thread migration: capture and
// restore are direct structure copies inside the VM (no tool-interface
// costs), the heap stays home behind the status-check DSM, and the
// destination eagerly allocates static arrays at class-load time.
func migrateThread(n *sodee.Node, job *sodee.Job, dest int) (*MigrationMetrics, error) {
	th := job.Thread()
	if th == nil {
		return nil, fmt.Errorf("experiments: job has no local thread")
	}
	t0 := time.Now()
	ack, err := th.RequestSuspend()
	if err != nil {
		return nil, err
	}
	<-ack
	if th.State() != vm.ThreadParked {
		return nil, fmt.Errorf("experiments: thread finished before suspension")
	}
	cs, err := sodee.CaptureDirect(n.VM, th, th.Depth(), n.ID, true)
	if err != nil {
		_ = th.Resume()
		return nil, err
	}
	arrays := staticArrays(n.VM, cs)
	captureDone := time.Now()

	job.Detach()
	if err := th.Kill(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(4096)
	w.Varint(int64(n.ID))
	w.Uvarint(job.ID)
	w.Blob(serial.EncodeCapturedState(cs, n.Prog, n.Codec))
	w.Uvarint(uint64(len(arrays)))
	for _, a := range arrays {
		w.Varint(int64(a.kind))
		w.Varint(a.length)
	}
	payload := w.Bytes()
	sendStart := time.Now()
	reply, err := n.EP.Call(dest, netsim.KindThreadMigrate, payload)
	if err != nil {
		return nil, err
	}
	arrival, restoreDur, err := decodeReply(reply)
	if err != nil {
		return nil, err
	}
	mm := &MigrationMetrics{MigrationMetrics: sodee.MigrationMetrics{
		Capture:    captureDone.Sub(t0),
		Transfer:   arrival.Sub(sendStart),
		Restore:    restoreDur,
		StateBytes: int64(len(payload)),
	}}
	mm.Latency = mm.Capture + mm.Transfer + mm.Restore
	return mm, nil
}

func handleThreadMigrate(n *sodee.Node, payload []byte) ([]byte, error) {
	arrival := time.Now()
	r := wire.NewReader(payload)
	homeNode := int(r.Varint())
	jobToken := r.Uvarint()
	cs, err := serial.DecodeCapturedState(r.BlobView(), n.Prog, n.Codec)
	if err != nil {
		return nil, err
	}
	var arrays []staticArray
	for i, na := 0, int(r.Uvarint()); i < na && r.Err() == nil; i++ {
		arrays = append(arrays, staticArray{kind: int32(r.Varint()), length: r.Varint()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	restoreStart := time.Now()
	th, err := sodee.RestoreDirect(n, cs)
	if err != nil {
		return nil, err
	}
	// JESSICA2 allocates space for static arrays at class loading rather
	// than at access time (§IV.A) — pay the allocation and zeroing now,
	// even though the data itself will still be fetched through the DSM on
	// access.
	for _, a := range arrays {
		if _, err := n.VM.Heap.AllocArray(n.VM.BuiltinClass(bytecode.ClassObject), a.kind, int(a.length)); err != nil {
			return nil, fmt.Errorf("experiments: eager static allocation: %w", err)
		}
	}
	restoreDur := time.Since(restoreStart)
	n.Mgr.RunRestored(th, homeNode, jobToken)
	return encodeReply(arrival, restoreDur), nil
}

// --- Xen: pre-copy live VM migration ---

// pageSize is the guest page size in bytes.
const pageSize = 4096

// Pre-copy stops after maxPrecopyRounds rounds, or once the dirty set
// falls below stopFraction of the image; the guest is then frozen for the
// final stop-and-copy round.
const (
	maxPrecopyRounds = 5
	stopFraction     = 0.02
)

// xenGuest is the guest OS a Xen node hosts: a page array whose dirty set
// the workload's heap writes drive, and the node the guest runs at.
//
// The paper configures 2 GB guests; the drivers scale the image (tens of
// MiB) — migration latency scales linearly with image size, so shapes are
// preserved.
type xenGuest struct {
	mu       sync.Mutex
	numPages int
	dirty    map[int]struct{}
	// touches counts writes; every 64th also dirties a page of steady
	// background activity (guest OS daemons, page-cache churn), so even
	// read-mostly workloads keep some pages warm — as with a real guest.
	touches uint64
	at      int
}

// newXenGuest builds a guest of the given image size (rounded up to whole
// pages) running at node at. All pages start dirty: the first pre-copy
// round transfers the full image.
func newXenGuest(sizeBytes int64, at int) *xenGuest {
	n := int((sizeBytes + pageSize - 1) / pageSize)
	g := &xenGuest{numPages: n, dirty: make(map[int]struct{}, n), at: at}
	for i := 0; i < n; i++ {
		g.dirty[i] = struct{}{}
	}
	return g
}

// location returns the node the guest currently runs at.
func (g *xenGuest) location() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.at
}

// touch marks the pages backing a heap object dirty. The mapping from
// object references to pages is a stable hash — a fixed object always
// lands on the same page, so repeated writes to a small working set dirty
// few pages (good for pre-copy) while scattered writes dirty many (bad),
// reproducing the dirty-rate dynamics live migration depends on.
func (g *xenGuest) touch(ref value.Ref, approxSize int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pages := int(approxSize/pageSize) + 1
	base := int(uint64(ref)*2654435761) % g.numPages
	if base < 0 {
		base = -base
	}
	for i := 0; i < pages && i < 32; i++ { // cap: one write dirties ≤32 pages
		g.dirty[(base+i)%g.numPages] = struct{}{}
	}
	g.touches++
	if g.touches%64 == 0 {
		g.dirty[int(g.touches/64)%g.numPages] = struct{}{}
	}
}

// dirtyCount returns the current dirty-set size.
func (g *xenGuest) dirtyCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.dirty)
}

// drainDirty snapshots and clears the dirty set, returning the number of
// pages to transfer this round.
func (g *xenGuest) drainDirty() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.dirty)
	g.dirty = make(map[int]struct{}, n/2+1)
	return n
}

// migrateVM performs live migration of the guest hosted by n: iterative
// pre-copy rounds transfer (re-)dirtied pages while the workload keeps
// running; the final stop-and-copy round freezes the guest briefly. The
// guest then runs at dest, which is what changes data locality for the
// §IV.C experiment.
func migrateVM(n *sodee.Node, g *xenGuest, job *sodee.Job, dest int) (*MigrationMetrics, error) {
	t0 := time.Now()
	mm := &MigrationMetrics{}

	// Iterative pre-copy: the guest (workload thread) keeps executing.
	for round := 0; round < maxPrecopyRounds; round++ {
		pages := g.drainDirty()
		if pages == 0 {
			break
		}
		mm.Rounds++
		if err := sendPages(n, dest, pages); err != nil {
			return nil, err
		}
		if float64(g.dirtyCount()) < stopFraction*float64(g.numPages) {
			break
		}
	}

	// Stop-and-copy: freeze the guest, transfer the remaining dirty set.
	freezeStart := time.Now()
	th := job.Thread()
	var resumeNeeded bool
	if th != nil && th.State() == vm.ThreadRunning {
		if ack, err := th.RequestSuspend(); err == nil {
			<-ack
			resumeNeeded = th.State() == vm.ThreadParked
		}
	}
	final := g.drainDirty()
	if err := sendPages(n, dest, final); err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.at = dest // handover: the guest now runs at dest
	g.mu.Unlock()
	if resumeNeeded {
		_ = th.Resume()
	}
	mm.Freeze = time.Since(freezeStart)
	mm.Latency = time.Since(t0)
	mm.Capture = mm.Latency - mm.Freeze // pre-copy phase
	mm.Transfer = mm.Latency
	mm.StateBytes = int64(final+1) * pageSize
	mm.HeapBytes = int64(g.numPages) * pageSize
	return mm, nil
}

// sendPages transfers a batch of guest pages, paying real wire time.
func sendPages(n *sodee.Node, dest int, pages int) error {
	const batch = 256 // pages per message (1 MiB)
	buf := make([]byte, batch*pageSize)
	for pages > 0 {
		nb := min(pages, batch)
		if _, err := n.EP.Call(dest, netsim.KindPage, buf[:nb*pageSize]); err != nil {
			return err
		}
		pages -= nb
	}
	return nil
}

// handlePage is the destination hypervisor: it just accepts the pages.
func handlePage(from int, payload []byte) ([]byte, error) { return nil, nil }
