package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/wire"
)

// Span is one timed interval in a job's lifetime. The migration source
// emits a "migrate" span per hop with "capture"/"transfer"/"restore"
// children (it learns the remote restore duration from the migrate
// reply, so no destination-side reporting is needed); chain execution
// adds "plant" and "forward" spans; the origin owns the single "job"
// root. IDs are unique within one (origin, job) trace — migration spans
// derive theirs from the hop's unique token so concurrent hops from
// different sources cannot collide.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"` // 0 = root
	Job    uint64        `json:"job"`
	Node   int           `json:"node"`           // node that did the work
	Dest   int           `json:"dest,omitempty"` // migration destination, 0 if n/a
	Name   string        `json:"name"`           // job|migrate|capture|transfer|restore|plant|forward
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur"`
	Bytes  int64         `json:"bytes,omitempty"`
	Detail string        `json:"detail,omitempty"` // migrate reason, segment position, ...
}

// RootSpanID is the id of every trace's "job" root span.
const RootSpanID uint64 = 1

// Trace-store bounds: a long-lived origin must not accumulate spans
// forever. Oldest traces evict FIFO past maxTraceJobs; within one trace,
// spans past maxSpansPerJob are dropped (a pathological hop count, not a
// normal workload).
const (
	maxTraceJobs   = 256
	maxSpansPerJob = 512
)

// TraceStore collects spans at a job's origin node, keyed by job id.
// Spans arrive asynchronously and possibly twice (the root is emitted
// open at start and again closed at completion), so Add upserts by span
// ID.
type TraceStore struct {
	mu   sync.Mutex
	jobs map[uint64]*jobTrace
	fifo []uint64
}

type jobTrace struct {
	spans map[uint64]Span
}

// NewTraceStore returns an empty store.
func NewTraceStore() *TraceStore {
	return &TraceStore{jobs: make(map[uint64]*jobTrace)}
}

// Add upserts spans into their jobs' traces.
func (ts *TraceStore) Add(spans ...Span) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, sp := range spans {
		jt, ok := ts.jobs[sp.Job]
		if !ok {
			if len(ts.fifo) >= maxTraceJobs {
				evict := ts.fifo[0]
				ts.fifo = ts.fifo[1:]
				delete(ts.jobs, evict)
			}
			jt = &jobTrace{spans: make(map[uint64]Span, 8)}
			ts.jobs[sp.Job] = jt
			ts.fifo = append(ts.fifo, sp.Job)
		}
		if _, exists := jt.spans[sp.ID]; !exists && len(jt.spans) >= maxSpansPerJob {
			continue
		}
		jt.spans[sp.ID] = sp
	}
}

// Get returns the job's spans sorted by start time (root first on ties),
// or nil if the job is unknown.
func (ts *TraceStore) Get(job uint64) []Span {
	ts.mu.Lock()
	jt, ok := ts.jobs[job]
	if !ok {
		ts.mu.Unlock()
		return nil
	}
	out := make([]Span, 0, len(jt.spans))
	for _, sp := range jt.spans {
		out = append(out, sp)
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start.Equal(out[j].Start) {
			return out[i].ID < out[j].ID
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out
}

// Len reports how many jobs have traces (for tests).
func (ts *TraceStore) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.jobs)
}

// EncodeSpans serializes a span batch for KindTraceSpan frames and the
// opTrace reply.
func EncodeSpans(spans []Span) []byte {
	w := wire.NewWriter(64 * len(spans))
	w.Uvarint(uint64(len(spans)))
	for _, sp := range spans {
		w.Uvarint(sp.ID)
		w.Uvarint(sp.Parent)
		w.Uvarint(sp.Job)
		w.Varint(int64(sp.Node))
		w.Varint(int64(sp.Dest))
		w.String(sp.Name)
		w.Fixed64(uint64(sp.Start.UnixNano()))
		w.Uvarint(uint64(sp.Dur))
		w.Uvarint(uint64(sp.Bytes))
		w.String(sp.Detail)
	}
	return w.Bytes()
}

// DecodeSpans parses EncodeSpans output.
func DecodeSpans(buf []byte) ([]Span, error) {
	r := wire.NewReader(buf)
	n := r.Uvarint()
	spans := make([]Span, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		sp := Span{
			ID:     r.Uvarint(),
			Parent: r.Uvarint(),
			Job:    r.Uvarint(),
			Node:   int(r.Varint()),
			Dest:   int(r.Varint()),
			Name:   r.String(),
		}
		sp.Start = time.Unix(0, int64(r.Fixed64()))
		sp.Dur = time.Duration(r.Uvarint())
		sp.Bytes = int64(r.Uvarint())
		sp.Detail = r.String()
		spans = append(spans, sp)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: decode spans: %w", err)
	}
	return spans, nil
}

// RenderTrace formats a job's spans as an indented timeline: offset from
// the root start, name, node (and destination for migrations), duration,
// payload bytes. Children indent under their parent. Returns "" for an
// empty trace.
func RenderTrace(spans []Span) string {
	if len(spans) == 0 {
		return ""
	}
	depth := make(map[uint64]int, len(spans))
	byID := make(map[uint64]Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var depthOf func(id uint64) int
	depthOf = func(id uint64) int {
		if d, ok := depth[id]; ok {
			return d
		}
		sp, ok := byID[id]
		if !ok || sp.Parent == 0 || sp.Parent == sp.ID {
			depth[id] = 0
			return 0
		}
		depth[id] = -1 // cycle guard
		d := depthOf(sp.Parent) + 1
		depth[id] = d
		return d
	}
	t0 := spans[0].Start
	for _, sp := range spans {
		if sp.Parent == 0 {
			t0 = sp.Start
			break
		}
	}
	var b []byte
	for _, sp := range spans {
		d := depthOf(sp.ID)
		if d < 0 {
			d = 0
		}
		loc := fmt.Sprintf("node %d", sp.Node)
		if sp.Dest != 0 {
			loc = fmt.Sprintf("node %d -> %d", sp.Node, sp.Dest)
		}
		line := fmt.Sprintf("%10.3fms %s%-10s %-16s %10.3fms",
			float64(sp.Start.Sub(t0))/float64(time.Millisecond),
			indent(d), sp.Name, loc,
			float64(sp.Dur)/float64(time.Millisecond))
		if sp.Bytes > 0 {
			line += fmt.Sprintf("  %d B", sp.Bytes)
		}
		if sp.Detail != "" {
			line += "  (" + sp.Detail + ")"
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	return string(b)
}

func indent(d int) string {
	const pad = "  "
	s := ""
	for i := 0; i < d; i++ {
		s += pad
	}
	return s
}
