package sodee

import (
	"strings"
	"testing"
	"time"
)

// The watch renderer must surface backpressure: an EvLagged marker names
// the job (when per-job) and carries the coalesced-drop count, so a
// sodctl watch reader can tell "events were dropped" from "nothing
// happened".
func TestEvLaggedRendering(t *testing.T) {
	ev := JobEvent{Kind: EvLagged, Job: 42, Result: 17, Time: time.Now()}
	s := ev.String()
	if !strings.Contains(s, "job 42") || !strings.Contains(s, "17 events dropped") {
		t.Fatalf("per-job EvLagged rendering %q: want job id and drop count", s)
	}
	// Firehose (WatchAll) lag markers carry no job id; the rendering must
	// not claim "job 0".
	fan := JobEvent{Kind: EvLagged, Result: 9, Time: time.Now()}
	s = fan.String()
	if strings.Contains(s, "job 0") {
		t.Fatalf("firehose EvLagged rendering %q: must not name job 0", s)
	}
	if !strings.Contains(s, "9 events dropped") {
		t.Fatalf("firehose EvLagged rendering %q: want drop count", s)
	}
}
