package main

import (
	"math"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names; the smoke test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is printed by every untraced run. An "op" is a job on the
// cluster workloads and one migration on the hop workloads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"rss_mb", "MB"},
}

// perLayer is printed by every traced run.
var perLayer = []metricDef{
	{"sod.submit_us.p50", "us"},
	{"sod.submit_us.p99", "us"},
	{"sod.watch_open_us.p50", "us"},
	{"daemon.ctl_rtt_us.p50", "us"},
	{"daemon.ctl_rtt_us.p99", "us"},
	{"events.terminal_lag_us.p50", "us"},
	{"events.lagged", "count"},
	{"events.coalesced", "count"},
	{"vm.instr_per_s", "1/s"},
	{"sodee.capture_us.p50", "us"},
	{"sodee.capture_us.p99", "us"},
	{"sodee.transfer_us.p50", "us"},
	{"sodee.transfer_us.p99", "us"},
	{"sodee.restore_us.p50", "us"},
	{"sodee.restore_us.p99", "us"},
	{"sodee.hop_unaccounted_us.p50", "us"},
	{"sodee.hop_bytes", "B"},
	{"sodee.migrations_per_job", "ratio"},
	{"sodee.time_to_offload_ms.p50", "ms"},
	{"balance.pushes", "count"},
	{"steal.attempts", "count"},
	{"steal.granted", "count"},
	{"steal.success_ratio", "ratio"},
	{"deltacache.byte_hit_ratio", "ratio"},
	{"deltacache.bytes_saved_per_hop", "B"},
	{"serial.hot.encode_us", "us"},
	{"serial.hot.decode_us", "us"},
	{"serial.hot.encode_allocs", "count"},
	{"serial.hot.state_bytes", "B"},
	{"serial.churn.encode_us", "us"},
	{"serial.churn.decode_us", "us"},
	{"serial.churn.encode_allocs", "count"},
	{"serial.churn.state_bytes", "B"},
	{"netsim.call_rtt_us.64B.p50", "us"},
	{"netsim.call_rtt_us.64B.p99", "us"},
	{"netsim.call_rtt_us.64KB.p50", "us"},
	{"netsim.call_rtt_us.64KB.p99", "us"},
	{"netsim.frame_mb_s", "MB/s"},
	{"trace.ops_per_s", "1/s"},
	{"trace.p50_ms", "ms"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

// endToEndValues computes the untraced metrics from a run's outcome.
func endToEndValues(o *outcome, window time.Duration) map[string]float64 {
	lat := o.lat.summarize()
	return map[string]float64{
		"setup_s":   o.setup.quantile(0.5),
		"ops_per_s": float64(o.opsDone) / window.Seconds(),
		"p50_ms":    lat.P50,
		"p99_ms":    lat.P99,
		"rss_mb":    o.rssMB,
	}
}

// probeResults are the layer probes a traced run makes after its window.
type probeResults struct {
	instrPerS  float64
	hot, churn serialResult
	net        netsimResult
	mig        *layerStats // hop phases, when the window had too few
}

// perLayerValues computes the traced metrics.
func perLayerValues(o *outcome, ls *layerStats, p probeResults, window time.Duration) map[string]float64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	mig := ls
	if p.mig != nil {
		mig = p.mig
	}
	c := o.counters
	small, large := p.net.small.summarize(), p.net.large.summarize()
	e2e := endToEndValues(o, window)
	return map[string]float64{
		"sod.submit_us.p50":              ls.submit.quantile(0.5),
		"sod.submit_us.p99":              ls.submit.quantile(0.99),
		"sod.watch_open_us.p50":          ls.watchOpen.quantile(0.5),
		"daemon.ctl_rtt_us.p50":          ls.ctlRTT.quantile(0.5),
		"daemon.ctl_rtt_us.p99":          ls.ctlRTT.quantile(0.99),
		"events.terminal_lag_us.p50":     ls.termLag.quantile(0.5),
		"events.lagged":                  float64(ls.lagged),
		"events.coalesced":               float64(c.eventsCoalesced),
		"vm.instr_per_s":                 p.instrPerS,
		"sodee.capture_us.p50":           mig.capture.quantile(0.5),
		"sodee.capture_us.p99":           mig.capture.quantile(0.99),
		"sodee.transfer_us.p50":          mig.transfer.quantile(0.5),
		"sodee.transfer_us.p99":          mig.transfer.quantile(0.99),
		"sodee.restore_us.p50":           mig.restore.quantile(0.5),
		"sodee.restore_us.p99":           mig.restore.quantile(0.99),
		"sodee.hop_unaccounted_us.p50":   mig.unaccounted.quantile(0.5),
		"sodee.hop_bytes":                mig.hopBytes.quantile(0.5),
		"sodee.migrations_per_job":       ratio(float64(ls.migrations), float64(ls.jobs)),
		"sodee.time_to_offload_ms.p50":   mig.offloadMS.quantile(0.5),
		"balance.pushes":                 float64(c.pushes),
		"steal.attempts":                 float64(c.stealReqs),
		"steal.granted":                  float64(c.stealGranted),
		"steal.success_ratio":            ratio(float64(c.stealGranted), float64(c.stealReqs)),
		"deltacache.byte_hit_ratio":      ratio(float64(c.deltaSaved), float64(c.deltaSaved+c.shippedBytes)),
		"deltacache.bytes_saved_per_hop": ratio(float64(c.deltaSaved), float64(c.migrations)),
		"serial.hot.encode_us":           p.hot.encodeUS,
		"serial.hot.decode_us":           p.hot.decodeUS,
		"serial.hot.encode_allocs":       p.hot.allocs,
		"serial.hot.state_bytes":         p.hot.bytes,
		"serial.churn.encode_us":         p.churn.encodeUS,
		"serial.churn.decode_us":         p.churn.decodeUS,
		"serial.churn.encode_allocs":     p.churn.allocs,
		"serial.churn.state_bytes":       p.churn.bytes,
		"netsim.call_rtt_us.64B.p50":     small.P50,
		"netsim.call_rtt_us.64B.p99":     small.P99,
		"netsim.call_rtt_us.64KB.p50":    large.P50,
		"netsim.call_rtt_us.64KB.p99":    large.P99,
		"netsim.frame_mb_s":              p.net.frameMBs,
		"trace.ops_per_s":                e2e["ops_per_s"],
		"trace.p50_ms":                   e2e["p50_ms"],
	}
}
