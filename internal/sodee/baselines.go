package sodee

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/serial"
	"repro/internal/value"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Short aliases used throughout this file.
const (
	vmThreadParked  = vm.ThreadParked
	vmThreadRunning = vm.ThreadRunning
)

type vmObject = vm.Object

// This file implements the three comparison systems of §IV: G-JavaMPI
// eager-copy process migration, JESSICA2 in-VM thread migration and
// Xen-style pre-copy live VM migration. They share the Manager's job and
// flush plumbing so the evaluation harness treats all systems uniformly.

// --- G-JavaMPI: eager-copy process migration ---

// MigrateProcess moves the *entire* process — full stack, full heap, all
// statics — to dest, with every object exported through Java
// serialization, exactly the cost profile §IV.A attributes to G-JavaMPI.
func (m *Manager) MigrateProcess(job *Job, dest int) (*MigrationMetrics, error) {
	th := job.Thread()
	n := m.node
	if th == nil || n.Agent == nil {
		return nil, fmt.Errorf("sodee: process migration unavailable on %v", n.System)
	}
	t0 := time.Now()
	parked, err := n.Agent.SuspendAtSafePoint(th)
	if err != nil {
		return nil, err
	}
	if !parked {
		return nil, fmt.Errorf("sodee: thread finished before suspension")
	}
	depth := th.Depth()

	// Full-stack capture through the debugger interface.
	cs, err := CaptureSegment(n.Agent, th, 0, depth, n.ID)
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
	n.VM.Heap.ForEach(func(ref value.Ref, o *vmObject) bool {
		heap = append(heap, serial.SnapshotObject(ref, o))
		return true
	})
	captureDone := time.Now()

	job.mu.Lock()
	job.th = nil
	job.mu.Unlock()
	if err := th.Kill(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(1 << 16)
	w.Varint(int64(n.ID))
	w.Uvarint(job.ID)
	w.Blob(serial.EncodeCapturedState(cs, n.Prog, n.Codec))
	w.Uvarint(uint64(len(heap)))
	for i := range heap {
		w.Blob(serial.EncodeObject(&heap[i], n.Prog, n.Codec))
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
	arrival, restoreDur, rerr := decodeMigrateReply(reply)
	if rerr != nil {
		return nil, rerr
	}
	mm := MigrationMetrics{
		System:     n.System,
		Capture:    captureDone.Sub(t0),
		Transfer:   arrival.Sub(sendStart),
		Restore:    restoreDur,
		StateBytes: int64(len(payload)),
		HeapBytes:  n.VM.Heap.Bytes(),
		ClassBytes: classBytes,
	}
	mm.Latency = mm.Capture + mm.Transfer + mm.Restore
	mm.Freeze = mm.Latency
	m.record(mm)
	m.observeWireLatency(dest, mm.Transfer)
	return &mm, nil
}

func (m *Manager) handleProcMigrate(from int, payload []byte) ([]byte, error) {
	arrival := time.Now()
	n := m.node
	r := wire.NewReader(payload)
	homeNode := int(r.Varint())
	jobToken := r.Uvarint()
	csBuf := r.BlobView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cs, err := serial.DecodeCapturedState(csBuf, n.Prog, n.Codec)
	if err != nil {
		return nil, err
	}
	var heap []serial.WireObject
	for i, nh := 0, int(r.Uvarint()); i < nh && r.Err() == nil; i++ {
		wo, derr := serial.DecodeObject(r.BlobView(), n.Prog, n.Codec)
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
	th, rc, err := RestoreByBreakpoints(n, cs)
	if err != nil {
		return nil, err
	}
	dst := completion{node: homeNode, token: jobToken}
	expect := n.Prog.Methods[cs.Frames[0].MethodID].ReturnsValue
	go func() {
		th.Run()
		m.routeResult(th, expect, dst, completion{})
	}()
	var restoreDur time.Duration
	timeout := time.NewTimer(restoreTimeout)
	defer timeout.Stop()
	select {
	case <-rc.done:
		restoreDur = rc.restoredAt.Sub(restoreStart)
	case <-timeout.C:
		return nil, fmt.Errorf("sodee: process restoration timed out")
	}

	w := wire.NewWriter(24)
	w.Fixed64(uint64(arrival.UnixNano()))
	w.Uvarint(uint64(restoreDur))
	return w.Bytes(), nil
}

// --- JESSICA2: in-VM thread migration ---

// MigrateThread performs JESSICA2-style thread migration: capture and
// restore are direct structure copies inside the VM (no tool-interface
// costs), the heap stays home behind the status-check DSM, and the
// destination eagerly allocates static arrays at class-load time.
func (m *Manager) MigrateThread(job *Job, dest int) (*MigrationMetrics, error) {
	th := job.Thread()
	n := m.node
	if th == nil {
		return nil, fmt.Errorf("sodee: job has no local thread")
	}
	t0 := time.Now()
	ack, err := th.RequestSuspend()
	if err != nil {
		return nil, err
	}
	<-ack
	if th.State() != vmThreadParked {
		return nil, fmt.Errorf("sodee: thread finished before suspension")
	}
	depth := th.Depth()
	cs, err := CaptureDirect(n.VM, th, depth, n.ID, true)
	if err != nil {
		_ = th.Resume()
		return nil, err
	}
	cs.AllocHints = staticAllocHints(n.VM, cs)
	captureDone := time.Now()

	job.mu.Lock()
	job.th = nil
	job.mu.Unlock()
	if err := th.Kill(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(4096)
	w.Varint(int64(n.ID))
	w.Uvarint(job.ID)
	w.Blob(serial.EncodeCapturedState(cs, n.Prog, n.Codec))
	payload := w.Bytes()
	sendStart := time.Now()
	reply, err := n.EP.Call(dest, netsim.KindThreadMigrate, payload)
	if err != nil {
		return nil, err
	}
	arrival, restoreDur, rerr := decodeMigrateReply(reply)
	if rerr != nil {
		return nil, rerr
	}
	mm := MigrationMetrics{
		System:     n.System,
		Capture:    captureDone.Sub(t0),
		Transfer:   arrival.Sub(sendStart),
		Restore:    restoreDur,
		StateBytes: int64(len(payload)),
	}
	mm.Latency = mm.Capture + mm.Transfer + mm.Restore
	mm.Freeze = mm.Latency
	m.record(mm)
	m.observeWireLatency(dest, mm.Transfer)
	return &mm, nil
}

func (m *Manager) handleThreadMigrate(from int, payload []byte) ([]byte, error) {
	arrival := time.Now()
	n := m.node
	r := wire.NewReader(payload)
	homeNode := int(r.Varint())
	jobToken := r.Uvarint()
	csBuf := r.BlobView()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cs, err := serial.DecodeCapturedState(csBuf, n.Prog, n.Codec)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.classSource = homeNode
	m.mu.Unlock()

	restoreStart := time.Now()
	th, err := RestoreDirect(n, cs)
	if err != nil {
		return nil, err
	}
	restoreDur := time.Since(restoreStart)
	expect := n.Prog.Methods[cs.Frames[0].MethodID].ReturnsValue
	go m.runWorker(th, expect, completion{node: homeNode, token: jobToken}, completion{})

	w := wire.NewWriter(24)
	w.Fixed64(uint64(arrival.UnixNano()))
	w.Uvarint(uint64(restoreDur))
	return w.Bytes(), nil
}

// --- Xen: pre-copy live VM migration ---

// VMMigrateOptions tunes the pre-copy loop.
type VMMigrateOptions struct {
	Dest int
	// MaxRounds bounds the iterative pre-copy phase.
	MaxRounds int
	// StopFraction: freeze when the dirty set falls below this fraction of
	// the image.
	StopFraction float64
}

// MigrateVM performs live migration of the node's guest image: iterative
// pre-copy rounds transfer (re-)dirtied pages while the workload keeps
// running; the final stop-and-copy round freezes the guest briefly. The
// execution then "runs at" the destination (Location is updated), which
// is what changes data locality for the §IV.C experiment.
func (m *Manager) MigrateVM(job *Job, opts VMMigrateOptions) (*MigrationMetrics, error) {
	n := m.node
	if n.Image == nil {
		return nil, fmt.Errorf("sodee: node %d has no guest image (not a Xen node)", n.ID)
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 5
	}
	if opts.StopFraction <= 0 {
		opts.StopFraction = 0.02
	}
	t0 := time.Now()
	mm := MigrationMetrics{System: n.System}

	// Iterative pre-copy: the guest (workload thread) keeps executing.
	for round := 0; round < opts.MaxRounds; round++ {
		pages := n.Image.DrainDirty()
		if pages == 0 {
			break
		}
		mm.Rounds++
		if err := m.sendPages(opts.Dest, pages); err != nil {
			return nil, err
		}
		if float64(n.Image.DirtyCount()) < opts.StopFraction*float64(n.Image.NumPages()) {
			break
		}
	}

	// Stop-and-copy: freeze the guest, transfer the remaining dirty set.
	freezeStart := time.Now()
	th := job.Thread()
	var resumeNeeded bool
	if th != nil && th.State() == vmThreadRunning {
		if ack, err := th.RequestSuspend(); err == nil {
			<-ack
			resumeNeeded = th.State() == vmThreadParked
		}
	}
	final := n.Image.DrainDirty()
	if err := m.sendPages(opts.Dest, final); err != nil {
		return nil, err
	}
	n.SetLocation(opts.Dest) // handover: the guest now runs "at" dest
	if resumeNeeded {
		_ = th.Resume()
	}
	mm.Freeze = time.Since(freezeStart)
	mm.Latency = time.Since(t0)
	mm.Capture = mm.Latency - mm.Freeze // pre-copy phase
	mm.Transfer = mm.Latency
	mm.Restore = 0
	mm.StateBytes = int64(final+1) * 4096
	mm.HeapBytes = n.Image.SizeBytes()
	m.record(mm)
	return &mm, nil
}

// sendPages transfers a batch of guest pages, paying real wire time.
func (m *Manager) sendPages(dest int, pages int) error {
	const batch = 256 // pages per message (1 MiB)
	buf := make([]byte, batch*4096)
	for pages > 0 {
		nb := pages
		if nb > batch {
			nb = batch
		}
		if _, err := m.node.EP.Call(dest, netsim.KindPage, buf[:nb*4096]); err != nil {
			return err
		}
		pages -= nb
	}
	return nil
}

func (m *Manager) handlePage(from int, payload []byte) ([]byte, error) {
	// The destination hypervisor just accepts the pages.
	return nil, nil
}
