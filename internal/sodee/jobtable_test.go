package sodee

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/value"
	"repro/internal/workloads"
)

// TestJobTableStaysBounded runs twice RetainedJobs tiny jobs through one
// node, then a few long ones migrated away and flushed home — every one
// replicated to its successor as a re-homing shadow — and checks that
// finished jobs leave the live tables: nothing stays running, no job or
// route outlives its job, the finished FIFO holds exactly the bound, and
// lookups answer for the newest finished job but no longer the oldest.
func TestJobTableStaysBounded(t *testing.T) {
	prog := preprocess.MustPreprocess(workloads.Cruncher(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := NewCluster(prog, netsim.Gigabit,
		NodeConfig{ID: 1, Preloaded: true}, NodeConfig{ID: 2, Preloaded: true})
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := c.Nodes[1], c.Nodes[2]

	total := 2*RetainedJobs + 100
	var oldest, newest uint64
	for i := 0; i < total; i++ {
		seed := int64(i % 97)
		j, err := n1.Mgr.StartJob("main", value.Int(seed), value.Int(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if want := workloads.CruncherExpected(seed, 3); res.I != want {
			t.Fatalf("job %d: result %d, want %d", j.ID, res.I, want)
		}
		if i == 0 {
			oldest = j.ID
		}
		newest = j.ID
	}
	// Then long jobs shipped whole to node 2 while running: their wrappers
	// live there, their handles wait at node 1 for the result flush, and
	// they finish last.
	const migIters = 1_000_000
	var migrated []*Job
	for seed := int64(1); seed <= 4; seed++ {
		j, err := n1.Mgr.StartJob("main", value.Int(seed), value.Int(migIters))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n1.Mgr.MigrateSOD(j, SODOptions{NFrames: WholeStack, Dest: 2, Flow: FlowReturnHome}); err != nil {
			t.Fatalf("migrate job %d: %v", j.ID, err)
		}
		migrated = append(migrated, j)
	}
	for _, j := range migrated {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("migrated job %d: %v", j.ID, err)
		}
	}

	// Shadow discharges travel one-way after each completion; let them
	// land before judging node 2's tables.
	deadline := time.Now().Add(20 * time.Second)
	for n2.Mgr.jobs.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for _, n := range []*Node{n1, n2} {
		if js := n.Mgr.RunningJobs(); len(js) != 0 {
			t.Errorf("node %d: %d running jobs after everything finished", n.ID, len(js))
		}
		if live := n.Mgr.jobs.Len(); live != 0 {
			t.Errorf("node %d: live-job table holds %d finished entries", n.ID, live)
		}
		if rts := n.Mgr.routes.Len(); rts != 0 {
			t.Errorf("node %d: route table holds %d entries of finished jobs", n.ID, rts)
		}
		g := n.Obs.Snapshot().Gauges
		if g["sod_jobs_live"] != 0 || g["sod_jobs_retained"] != RetainedJobs {
			t.Errorf("node %d: gauges live=%d retained=%d, want 0 and %d",
				n.ID, g["sod_jobs_live"], g["sod_jobs_retained"], RetainedJobs)
		}
	}

	if j, ok := n1.Mgr.Job(newest); !ok || !j.Done() {
		t.Errorf("newest finished job %d not answerable (found=%v)", newest, ok)
	}
	if _, ok := n1.Mgr.Job(oldest); ok {
		t.Errorf("oldest finished job %d still answerable past the bound", oldest)
	}
	for _, j := range migrated {
		if _, ok := n1.Mgr.Job(j.ID); !ok {
			t.Errorf("migrated job %d, the last to finish, not answerable", j.ID)
		}
	}
	// Watch answers for the same jobs Wait does.
	bus := n1.Mgr.Events()
	if !bus.Known(newest) || bus.Known(oldest) {
		t.Errorf("bus: Known(newest)=%v Known(oldest)=%v, want true/false",
			bus.Known(newest), bus.Known(oldest))
	}
	// The successor forgot the oldest shadow too, and kept the newest.
	if _, ok := n2.Mgr.Job(oldest); ok {
		t.Errorf("successor still answers for the oldest shadow %d", oldest)
	}
	if j, ok := n2.Mgr.Job(newest); !ok || !j.Done() {
		t.Errorf("successor lost the newest discharged shadow %d (found=%v)", newest, ok)
	}
}
