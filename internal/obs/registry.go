// Package obs is the runtime's observability plane: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) plus
// per-job trace spans (span.go). One Registry lives on each node — tests
// and the in-process cluster run many nodes per OS process, so nothing
// here is global. Hot paths hold pre-registered *Counter/*Histogram
// pointers and pay one striped atomic add per event; name lookups happen
// only at registration and snapshot time.
//
// Snapshots serialize three ways: Go struct (loadgen reports), JSON
// (benchmark artifacts), and Prometheus text exposition (the sodd -obs
// HTTP endpoint and sodctl metrics). Metric keys follow Prometheus
// conventions: `family_total` or `family_seconds`, with optional labels
// baked into the key as `family{label="v"}`.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
	"repro/internal/wire"
)

// Counter is a monotonically increasing striped counter. Increments from
// many goroutines spread over cache-padded cells keyed by whatever id the
// caller has at hand (job token, destination node), so hot-path Inc calls
// never share a cache line.
type Counter struct {
	s shard.Striped
}

// Inc adds one (unkeyed — fine for low-rate counters).
func (c *Counter) Inc() { c.s.Add(0, 1) }

// Add adds delta (unkeyed).
func (c *Counter) Add(delta int64) { c.s.Add(0, delta) }

// IncKeyed adds one on the cell picked by key — use on hot paths where a
// natural spreading key exists.
func (c *Counter) IncKeyed(key uint64) { c.s.Add(key, 1) }

// AddKeyed adds delta on the cell picked by key.
func (c *Counter) AddKeyed(key uint64, delta int64) { c.s.Add(key, delta) }

// Value sums the cells (approximate under concurrent writes).
func (c *Counter) Value() int64 { return c.s.Sum() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bound histogram. Bounds are upper-inclusive bucket
// edges; observations above the last bound land in an implicit +Inf
// bucket. Buckets and the count are plain atomic adds; the sum is a CAS
// float add — all wait-free enough for the migration path, which observes
// a handful of values per migration, not per instruction.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // math.Float64bits
	count  atomic.Int64
}

// DurationBuckets are the default bounds (seconds) for latency
// histograms: exponential 100µs → 10s, covering LAN migrations through
// kbps-link device experiments.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// ByteBuckets are the default bounds for payload-size histograms.
var ByteBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(ns int64) { h.Observe(float64(ns) / 1e9) }

// Registry holds one node's metrics, keyed by full metric name
// (labels baked in). Registration is idempotent: the same name always
// returns the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() int64),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (registering on first use) the counter named name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge named name.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge read from fn at every Snapshot — for sizes
// the owner already tracks, so no hot path pays to mirror them into a
// settable gauge. Registering a name again replaces its function. fn must
// not call back into the registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = fn
}

// Histogram returns (registering on first use) the histogram named name
// with the given bucket bounds. Bounds are fixed at first registration;
// later calls with different bounds get the original instrument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Label bakes a single label into a metric name: Label("x_total", "dest",
// "3") → `x_total{dest="3"}`.
func Label(name, key, val string) string {
	return name + "{" + key + `="` + val + `"}`
}

// HistSnapshot is one histogram's frozen state. Counts are per-bucket
// (not cumulative), length len(Bounds)+1 with the overflow bucket last.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, safe to serialize.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Sum:    math.Float64frombits(h.sum.Load()),
			Count:  h.count.Load(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge adds other's values into s (counters and histogram buckets sum;
// gauges sum too, which reads as a cluster total). Used to aggregate
// per-node snapshots into one cluster view.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	for k, v := range other.Counters {
		if s.Counters == nil {
			s.Counters = make(map[string]int64)
		}
		s.Counters[k] += v
	}
	for k, v := range other.Gauges {
		if s.Gauges == nil {
			s.Gauges = make(map[string]int64)
		}
		s.Gauges[k] += v
	}
	for k, v := range other.Histograms {
		if s.Histograms == nil {
			s.Histograms = make(map[string]HistSnapshot)
		}
		cur, ok := s.Histograms[k]
		if !ok || len(cur.Counts) != len(v.Counts) {
			cp := HistSnapshot{
				Bounds: append([]float64(nil), v.Bounds...),
				Counts: append([]int64(nil), v.Counts...),
				Sum:    v.Sum,
				Count:  v.Count,
			}
			s.Histograms[k] = cp
			continue
		}
		for i := range cur.Counts {
			cur.Counts[i] += v.Counts[i]
		}
		cur.Sum += v.Sum
		cur.Count += v.Count
		s.Histograms[k] = cur
	}
}

// splitName separates `family{labels}` into family and the braced label
// body ("" when unlabeled).
func splitName(key string) (family, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], strings.TrimSuffix(key[i+1:], "}")
	}
	return key, ""
}

// fmtFloat renders a float the way Prometheus text format expects.
func fmtFloat(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// RenderPrometheus renders the snapshot in Prometheus text exposition
// format, deterministically ordered (sorted by key) so tests and diffs
// are stable.
func (s *Snapshot) RenderPrometheus() string {
	var b strings.Builder
	typed := make(map[string]bool)
	emitType := func(family, typ string) {
		if !typed[family] {
			fmt.Fprintf(&b, "# TYPE %s %s\n", family, typ)
			typed[family] = true
		}
	}
	for _, key := range sortedKeys(s.Counters) {
		family, _ := splitName(key)
		emitType(family, "counter")
		fmt.Fprintf(&b, "%s %d\n", key, s.Counters[key])
	}
	for _, key := range sortedKeys(s.Gauges) {
		family, _ := splitName(key)
		emitType(family, "gauge")
		fmt.Fprintf(&b, "%s %d\n", key, s.Gauges[key])
	}
	histKeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		histKeys = append(histKeys, k)
	}
	sort.Strings(histKeys)
	for _, key := range histKeys {
		h := s.Histograms[key]
		family, labels := splitName(key)
		emitType(family, "histogram")
		cum := int64(0)
		for i := range h.Counts {
			cum += h.Counts[i]
			bound := math.Inf(1)
			if i < len(h.Bounds) {
				bound = h.Bounds[i]
			}
			le := `le="` + fmtFloat(bound) + `"`
			if labels != "" {
				le = labels + "," + le
			}
			fmt.Fprintf(&b, "%s_bucket{%s} %d\n", family, le, cum)
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", family, suffix, fmtFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", family, suffix, h.Count)
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// EncodeSnapshot serializes a snapshot for the control protocol
// (opMetrics reply).
func EncodeSnapshot(s *Snapshot) []byte {
	w := wire.NewWriter(512)
	w.Uvarint(uint64(len(s.Counters)))
	for _, k := range sortedKeys(s.Counters) {
		w.String(k)
		w.Varint(s.Counters[k])
	}
	w.Uvarint(uint64(len(s.Gauges)))
	for _, k := range sortedKeys(s.Gauges) {
		w.String(k)
		w.Varint(s.Gauges[k])
	}
	histKeys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		histKeys = append(histKeys, k)
	}
	sort.Strings(histKeys)
	w.Uvarint(uint64(len(histKeys)))
	for _, k := range histKeys {
		h := s.Histograms[k]
		w.String(k)
		w.Float64Slice(h.Bounds)
		w.Int64Slice(h.Counts)
		w.Float64(h.Sum)
		w.Varint(h.Count)
	}
	return w.Bytes()
}

// DecodeSnapshot parses EncodeSnapshot's output.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	r := wire.NewReader(buf)
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	nc := r.Uvarint()
	for i := uint64(0); i < nc && r.Err() == nil; i++ {
		k := r.String()
		s.Counters[k] = r.Varint()
	}
	ng := r.Uvarint()
	for i := uint64(0); i < ng && r.Err() == nil; i++ {
		k := r.String()
		s.Gauges[k] = r.Varint()
	}
	nh := r.Uvarint()
	for i := uint64(0); i < nh && r.Err() == nil; i++ {
		k := r.String()
		h := HistSnapshot{
			Bounds: r.Float64Slice(),
			Counts: r.Int64Slice(),
			Sum:    r.Float64(),
			Count:  r.Varint(),
		}
		s.Histograms[k] = h
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}
