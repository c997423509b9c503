package sodee

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/serial"
	"repro/internal/wire"
)

// Wire protocol capabilities, negotiated per peer pair. Each node
// advertises its capability byte as a trailing field on the gossip load
// report (see encodeSignalsCaps); a sender only delta-encodes when both
// sides advertise it, and a link that has not negotiated uses the
// full-state format. The migrate message layout itself is not versioned:
// every node in a cluster must run a build with the same layout.
const (
	// capDelta: the peer understands delta-encoded migration state —
	// frames, statics and class bundles referenced by content hash when
	// unchanged since the last transfer on this link.
	capDelta byte = 1 << 0
)

// Link-cache bounds. A link cache holds the units last shipped on one
// (src,dst) pair in either direction; when a cache outgrows these caps it
// is cleared wholesale — the next migration pays one full resend and
// rebuilds it, which is always correct (a reference is only emitted for a
// hash present in the cache).
const (
	maxDeltaUnits = 4096
	maxDeltaBytes = 32 << 20
)

// deltaMissMarker is embedded in the error a receiver returns when a
// delta reference does not resolve in its link cache (e.g. the receiver
// restarted and lost the cache, or the sender's view is stale). It must
// survive a trip through the TCP transport, which flattens remote errors
// to strings — hence a marker substring rather than a sentinel value.
const deltaMissMarker = "sodee: delta miss"

// isDeltaMiss reports whether err is a delta-reference resolution failure
// (possibly string-flattened by the transport). The sender reacts by
// evicting the link cache and resending the same migration in full.
func isDeltaMiss(err error) bool {
	return err != nil && strings.Contains(err.Error(), deltaMissMarker)
}

// linkCache is one peer's half of the snapshot cache: content hash → unit
// bytes for every unit that crossed the link (in either direction) since
// the last eviction. Symmetric on purpose: a unit this node sent to the
// peer is also resolvable when the peer later references it on the way
// back, which is exactly the ping-pong/return-home pattern the delta path
// exists for.
type linkCache struct {
	units map[uint64][]byte
	bytes int64
}

// cachedUnit is a unit staged by an in-flight delta session, committed to
// the link cache only after the peer acknowledges the migration.
type cachedUnit struct {
	h uint64
	b []byte
}

// deltaSession accumulates the delta bookkeeping for one outgoing
// migration: units referenced (hits) versus shipped in full (staged in
// pending). Nothing touches the shared link cache until commitDelta — a
// failed send must not poison the cache with units the peer never saw.
type deltaSession struct {
	m       *Manager
	peer    int
	pending []cachedUnit
	hits    int64
	saved   int64
}

// writeUnit emits one unit in delta form: a reference (flag 1 + 8-byte
// hash) when the link cache already holds identical bytes, the full unit
// otherwise. A reference costs 9 bytes regardless of unit size.
func (s *deltaSession) writeUnit(w *wire.Writer, unit []byte) {
	h := serial.Hash64(unit)
	if s.m.linkHas(s.peer, h) {
		w.Byte(1)
		w.Fixed64(h)
		s.hits++
		if saved := int64(len(unit)) - 9; saved > 0 {
			s.saved += saved
		}
		return
	}
	w.Byte(0)
	w.Blob(unit)
	s.pending = append(s.pending, cachedUnit{h: h, b: unit})
}

// linkHas reports whether the cache for peer holds a unit with hash h.
func (m *Manager) linkHas(peer int, h uint64) bool {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	lc := m.links[peer]
	if lc == nil {
		return false
	}
	_, ok := lc.units[h]
	return ok
}

// resolveUnit returns the cached bytes for hash h on the link to peer, or
// a delta-miss error the sender recognizes across the wire.
func (m *Manager) resolveUnit(peer int, h uint64) ([]byte, error) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	if lc := m.links[peer]; lc != nil {
		if b, ok := lc.units[h]; ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%s: link %d→%d has no unit %016x", deltaMissMarker, peer, m.node.ID, h)
}

// recordUnit stores unit bytes in the link cache for peer, clearing the
// cache first if it would exceed its bounds (a cleared cache only costs a
// future full resend).
func (m *Manager) recordUnit(peer int, h uint64, b []byte) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	m.recordUnitLocked(peer, h, b)
}

func (m *Manager) recordUnitLocked(peer int, h uint64, b []byte) {
	lc := m.links[peer]
	if lc == nil {
		lc = &linkCache{units: make(map[uint64][]byte)}
		m.links[peer] = lc
	}
	if _, ok := lc.units[h]; ok {
		return
	}
	if len(lc.units)+1 > maxDeltaUnits || lc.bytes+int64(len(b)) > maxDeltaBytes {
		lc.units = make(map[uint64][]byte)
		lc.bytes = 0
	}
	lc.units[h] = b
	lc.bytes += int64(len(b))
}

// beginDelta opens a delta session for an outgoing migration to peer.
func (m *Manager) beginDelta(peer int) *deltaSession {
	return &deltaSession{m: m, peer: peer}
}

// commitDelta publishes a successful session's fully-shipped units into
// the link cache, making them referenceable by the next migration on this
// link in either direction.
func (m *Manager) commitDelta(sess *deltaSession) {
	if sess == nil {
		return
	}
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	for _, u := range sess.pending {
		m.recordUnitLocked(sess.peer, u.h, u.b)
	}
}

// dropLink evicts the whole cache for peer. Called on membership
// transitions (a dead or freshly-rejoined peer has no cache, or a new
// empty one) and on a delta miss (the views diverged; resync from
// scratch).
func (m *Manager) dropLink(peer int) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	delete(m.links, peer)
}

// deltaCacheLen reports the number of cached units for peer (tests).
func (m *Manager) deltaCacheLen(peer int) int {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	if lc := m.links[peer]; lc != nil {
		return len(lc.units)
	}
	return 0
}

// SetWireCaps overrides the capabilities this node advertises and uses.
// Zero disables the delta path: every migration is a self-contained
// full-state message. Benchmarks use this to measure full versus delta
// on the same binary.
func (m *Manager) SetWireCaps(caps byte) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	m.selfCaps = caps
}

// WireCaps returns the capability byte this node advertises.
func (m *Manager) WireCaps() byte {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	return m.selfCaps
}

// peerWireCaps returns the effective capabilities for talking to peer:
// the intersection of what we support and what the peer last advertised.
// A peer that never advertised (old binary, or no gossip heard yet) gets
// zero — the full-state format.
func (m *Manager) peerWireCaps(peer int) byte {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	return m.selfCaps & m.peerCaps[peer]
}

// setPeerCaps records the capability byte a peer advertised via gossip.
func (m *Manager) setPeerCaps(peer int, caps byte) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	m.peerCaps[peer] = caps
}

// notePiggyback records that dest just received fresh load signals inside
// a data message, letting the next PublishLoad skip the dedicated report.
func (m *Manager) notePiggyback(dest int) {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	m.lastPiggy[dest] = time.Now()
}

// recentlyPiggybacked reports whether dest got piggybacked signals within
// window.
func (m *Manager) recentlyPiggybacked(dest int, window time.Duration) bool {
	m.deltaMu.Lock()
	defer m.deltaMu.Unlock()
	t, ok := m.lastPiggy[dest]
	return ok && time.Since(t) < window
}

// --- delta-encoded captured state ---

// tagDelta marks a delta-encoded CapturedState. Disjoint from the serial
// package's 0xC1..0xC4 tags so a mis-routed blob fails loudly.
const tagDelta byte = 0xD1

// encodeDeltaState encodes cs with every frame and statics bundle passed
// through sess.writeUnit: unchanged units become 9-byte references into
// the link cache. The scalar envelope (hops, visits) is always
// inline — it changes every hop and is tiny.
func encodeDeltaState(w *wire.Writer, cs *serial.CapturedState, m *Manager, sess *deltaSession, codec serial.Codec) {
	prog := m.node.Prog
	w.Byte(tagDelta)
	w.Varint(int64(cs.HomeNode))
	w.Varint(int64(cs.ThreadID))
	w.Uvarint(uint64(len(cs.Frames)))
	for i := range cs.Frames {
		sess.writeUnit(w, serial.EncodeFrame(&cs.Frames[i], prog, codec))
	}
	w.Uvarint(uint64(len(cs.Statics)))
	for i := range cs.Statics {
		sess.writeUnit(w, serial.EncodeClassStatics(&cs.Statics[i], prog, codec))
	}
	w.Varint(int64(cs.Hops))
	visited := cs.Visited
	if len(visited) > serial.MaxVisits {
		visited = visited[len(visited)-serial.MaxVisits:]
	}
	w.Uvarint(uint64(len(visited)))
	for _, v := range visited {
		w.Varint(int64(v.Node))
		w.Varint(v.AgeNanos)
	}
}

// readDeltaUnit reads one unit written by deltaSession.writeUnit,
// resolving references against the link cache for peer `from` and
// recording fully-shipped units into it.
func (m *Manager) readDeltaUnit(r *wire.Reader, from int) ([]byte, error) {
	if r.Byte() == 1 {
		h := r.Fixed64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return m.resolveUnit(from, h)
	}
	b := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	m.recordUnit(from, serial.Hash64(b), b)
	return b, nil
}

// decodeDeltaState decodes a blob produced by encodeDeltaState, resolving
// unit references against the link cache for `from`. A reference that
// does not resolve returns a delta-miss error; the sender retries in
// full.
func (m *Manager) decodeDeltaState(buf []byte, from int, codec serial.Codec) (*serial.CapturedState, error) {
	prog := m.node.Prog
	r := wire.NewReader(buf)
	r.Expect(tagDelta)
	cs := &serial.CapturedState{
		HomeNode: int32(r.Varint()),
		ThreadID: int32(r.Varint()),
	}
	nf := r.Uvarint()
	if r.Err() != nil || nf > uint64(r.Remaining())+64 {
		return nil, fmt.Errorf("sodee: corrupt delta frame count")
	}
	for i := uint64(0); i < nf; i++ {
		unit, err := m.readDeltaUnit(r, from)
		if err != nil {
			return nil, err
		}
		f, err := serial.DecodeFrame(unit, prog, codec)
		if err != nil {
			return nil, err
		}
		cs.Frames = append(cs.Frames, f)
	}
	ns := r.Uvarint()
	if r.Err() != nil || ns > uint64(r.Remaining())+64 {
		return nil, fmt.Errorf("sodee: corrupt delta statics count")
	}
	for i := uint64(0); i < ns; i++ {
		unit, err := m.readDeltaUnit(r, from)
		if err != nil {
			return nil, err
		}
		s, err := serial.DecodeClassStatics(unit, prog, codec)
		if err != nil {
			return nil, err
		}
		cs.Statics = append(cs.Statics, s)
	}
	cs.Hops = int32(r.Varint())
	for i, n := 0, int(r.Uvarint()); i < n && r.Err() == nil; i++ {
		cs.Visited = append(cs.Visited, serial.Visit{Node: int32(r.Varint()), AgeNanos: r.Varint()})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cs, nil
}
