package daemon

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestObsEndpointServesMetricsAndPprof boots a daemon with the -obs
// listener, drives a little load, and checks the HTTP surface: /metrics
// must serve well-formed, non-empty Prometheus text and the pprof index
// must answer — the contract CI's cluster smoke curls for.
func TestObsEndpointServesMetricsAndPprof(t *testing.T) {
	d1, _, _ := bootTrio(t)
	waitMembers(t, d1, 2, 3)
	addr, err := d1.StartObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	job, err := d1.Submit("main", 7, testIters)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d, want 200", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics content type %q, want text/plain", resp.Header.Get("Content-Type"))
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE sod_events_published_total counter") {
		t.Fatalf("/metrics missing TYPE line for sod_events_published_total:\n%s", text)
	}
	if !strings.Contains(text, "sod_events_published_total ") {
		t.Fatalf("/metrics missing sod_events_published_total sample:\n%s", text)
	}
	// Every sample line must parse as "name value" (or a # comment) —
	// the malformed-output check the smoke relies on.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	pp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close() //nolint:errcheck
	if pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d, want 200", pp.StatusCode)
	}

	// A second StartObs must refuse rather than leak a listener.
	if _, err := d1.StartObs("127.0.0.1:0"); err == nil {
		t.Fatal("second StartObs succeeded; want an error")
	}
}

// TestTraceTimelineAcrossDaemons is the observability acceptance run: a
// burst lands on the weak node of a real 3-daemon TCP cluster, the
// balancer spills it, and the origin daemon's trace store must hold a
// complete multi-hop timeline for a migrated job — exactly one root
// span, no orphaned parents, and capture → transfer → restore under
// every migration hop, in causal order. opMetrics must agree that
// migrations happened.
func TestTraceTimelineAcrossDaemons(t *testing.T) {
	d1, _, _ := bootTrio(t)
	waitMembers(t, d1, 2, 3)

	cl, err := Dial(d1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	const njobs = 5
	ids := make([]uint64, njobs)
	for i := range ids {
		j, err := cl.Submit(context.Background(), "main", int64(20+i), testIters)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = j.ID()
	}
	for _, id := range ids {
		if _, done, errMsg, err := cl.Wait(context.Background(), id, testTimeout); err != nil || !done || errMsg != "" {
			t.Fatalf("job %d: done=%v errMsg=%q err=%v", id, done, errMsg, err)
		}
	}

	// Spans from remote hops ride home asynchronously; poll for a job
	// whose timeline shows at least one complete hop.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var best []obs.Span
		for _, id := range ids {
			spans, err := cl.Trace(context.Background(), id)
			if err != nil {
				t.Fatalf("trace job %d: %v", id, err)
			}
			if hasCompleteHop(t, id, spans) {
				best = spans
				break
			}
		}
		if best != nil {
			// The rendering (what sodctl trace prints) must show the hop.
			text := obs.RenderTrace(best)
			for _, want := range []string{"job", "migrate", "capture", "transfer", "restore", "node 1 -> "} {
				if !strings.Contains(text, want) {
					t.Fatalf("rendered trace missing %q:\n%s", want, text)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job's trace ever showed a complete migration hop")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var migs int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sod_migrations_total{") {
			migs += v
		}
	}
	if migs == 0 {
		t.Fatal("opMetrics reports zero migrations after a spilled burst")
	}
}

// hasCompleteHop validates one job's timeline invariants (fatal on a
// structural violation) and reports whether it contains at least one
// migrate span with all three phase children.
func hasCompleteHop(t *testing.T, job uint64, spans []obs.Span) bool {
	t.Helper()
	byID := make(map[uint64]obs.Span, len(spans))
	roots := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			roots++
			if s.Name != "job" {
				t.Fatalf("job %d root span named %q, want \"job\"", job, s.Name)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("job %d has %d root spans, want exactly 1: %+v", job, roots, spans)
	}
	phases := make(map[uint64]map[string]bool)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("job %d span %q (id %d) orphaned: parent %d not in trace", job, s.Name, s.ID, s.Parent)
		}
		if parent.Name == "migrate" {
			if phases[s.Parent] == nil {
				phases[s.Parent] = make(map[string]bool)
			}
			phases[s.Parent][s.Name] = true
		}
	}
	for _, ph := range phases {
		if ph["capture"] && ph["transfer"] && ph["restore"] {
			return true
		}
	}
	return false
}
