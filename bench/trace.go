package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/sod"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented for
// this). Spans of one job share Job; Parent is 0 for a root.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Job    uint64        `json:"job"`
	Name   string        `json:"name"` // layer.call, e.g. sod.submit
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
}

func (s span) end() time.Time { return s.Start.Add(s.Dur) }

// layer is the span name's prefix: the module the call went into.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so the measured code paths are
// the same with tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{}
}

// id reserves a span id, so a parent can be named before it is recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records s, assigning an id when it has none, and returns the id.
func (t *tracer) add(s span) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// mergeObs adds a job's trace as the program recorded it (sod.Client.Trace)
// under parent: the origin's "job" span and each hop's migrate span with
// its capture/transfer/restore children, renamed into the sodee layer.
func (t *tracer) mergeObs(parent, job uint64, obs []sod.TraceSpan) {
	if t == nil || len(obs) == 0 {
		return
	}
	ids := make(map[uint64]uint64, len(obs))
	for _, o := range obs {
		ids[o.ID] = t.id()
	}
	for _, o := range obs {
		p, ok := ids[o.Parent]
		if !ok {
			p = parent
		}
		t.add(span{
			ID: ids[o.ID], Parent: p, Job: job, Name: "sodee." + o.Name,
			Start: o.Start, Dur: o.Dur, Bytes: o.Bytes,
		})
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time — a span's duration minus the
// part of it its children cover — over all spans.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += s.Dur - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.end()
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.end()) {
			b = parent.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	return total + cur.b.Sub(cur.a)
}

// writeSpans writes the trace file: a JSON array of spans.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// checkSpans verifies a trace is well formed: unique ids, every parent
// present, names set, no negative durations, children inside one job.
func checkSpans(spans []span) error {
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		if s.ID == 0 || s.Name == "" || s.Dur < 0 {
			return fmt.Errorf("malformed span %+v", s)
		}
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if p.Job != s.Job {
			return fmt.Errorf("span %d (%s) is in job %d, its parent in job %d", s.ID, s.Name, s.Job, p.Job)
		}
	}
	return nil
}
