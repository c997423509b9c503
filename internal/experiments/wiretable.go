package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/preprocess"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/workloads"
)

// The wire experiment measures what the migration fast path buys: the
// same job ping-pongs between two nodes with whole-stack return-home
// migrations, once with the wire capabilities forced to zero (every hop a
// self-contained full-state message) and once with delta capture on
// (the default). The first hop of a run is the cold
// cost — it seeds the link's snapshot cache — and every later hop is the
// warm repeat-hop cost the delta path exists to shrink. Both modes run on
// the simulated Gigabit fabric and on real TCP loopback sockets.

// WireRow is one (fabric, mode) cell of the comparison.
type WireRow struct {
	Fabric    string        // "sim" or "tcp"
	Mode      string        // "full" or "delta"
	Trips     int           // migrations measured
	ColdBytes int64         // first hop: cache empty, everything ships
	WarmBytes int64         // median of the repeat hops
	ColdLat   time.Duration // first hop capture→resume latency
	WarmLat   time.Duration // median repeat-hop capture→resume latency
	DeltaHits int64         // units sent as cache references (delta mode)
}

// WireReport is the committed benchmark artifact (BENCH_wire.json).
type WireReport struct {
	Config WireConfig
	Rows   []WireRow
	// WarmReduction is 1 - delta/full warm bytes on the sim fabric — the
	// headline number, and what the regression gate tracks.
	WarmReduction float64
}

// WireConfig sizes the experiment.
type WireConfig struct {
	Trips int   // migrations per (fabric, mode) run (default 12)
	Iters int64 // crunch iterations — must outlive all the hops (default 12M)
	Short bool  // CI smoke scale
}

func (c *WireConfig) defaults() {
	if c.Short && c.Trips <= 0 {
		c.Trips = 6
	}
	if c.Trips <= 2 {
		c.Trips = 12
	}
	if c.Iters <= 0 {
		c.Iters = 12_000_000
		if c.Short {
			c.Iters = 6_000_000
		}
	}
}

// wireTrips runs one (cluster, mode) measurement: start one job on node
// 1, ping-pong it cfg.Trips times, and summarize the per-hop wire bytes
// and capture→resume latency.
func wireTrips(c *sodee.Cluster, fabric, mode string, cfg WireConfig) (WireRow, error) {
	n1, n2 := c.Nodes[1], c.Nodes[2]
	if mode == "full" {
		n1.Mgr.SetWireCaps(0)
		n2.Mgr.SetWireCaps(0)
	}
	// Negotiate capabilities (and liveness) before the first hop; load
	// reports are fire-and-forget, so wait until both sides have heard.
	for deadline := time.Now().Add(5 * time.Second); ; {
		n1.Mgr.PublishLoad()
		n2.Mgr.PublishLoad()
		if len(n1.Mgr.PeerSignals()) > 0 && len(n2.Mgr.PeerSignals()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			return WireRow{}, fmt.Errorf("%s/%s: capability gossip never converged", fabric, mode)
		}
		time.Sleep(time.Millisecond)
	}

	job, err := n1.Mgr.StartJob("Hot.crunch", value.Int(3), value.Int(cfg.Iters))
	if err != nil {
		return WireRow{}, err
	}
	mgrs := map[int]*sodee.Manager{1: n1.Mgr, 2: n2.Mgr}
	var bytesPer []int64
	var lats []time.Duration
	cur := 1
	for trip := 0; trip < cfg.Trips; trip++ {
		m := mgrs[cur]
		// Locate the migratable handle at the job's current host: the
		// origin handle on hop one, the migrated-in wrapper afterwards.
		var hostJob *sodee.Job
		for deadline := time.Now().Add(10 * time.Second); ; {
			if js := m.RunningJobs(); len(js) > 0 {
				hostJob = js[0]
				break
			}
			if job.Done() {
				return WireRow{}, fmt.Errorf("%s/%s: job finished after %d trips; raise -wire-iters", fabric, mode, trip)
			}
			if time.Now().After(deadline) {
				return WireRow{}, fmt.Errorf("%s/%s trip %d: no migratable job on node %d", fabric, mode, trip, cur)
			}
			time.Sleep(200 * time.Microsecond)
		}
		dest := 3 - cur
		mm, err := m.MigrateSOD(hostJob, sodee.SODOptions{
			NFrames: sodee.WholeStack, Dest: dest, Flow: sodee.FlowReturnHome,
		})
		if err != nil {
			return WireRow{}, fmt.Errorf("%s/%s trip %d (%d→%d): %w", fabric, mode, trip, cur, dest, err)
		}
		bytesPer = append(bytesPer, mm.StateBytes+mm.ClassBytes)
		lats = append(lats, mm.Latency)
		cur = dest
	}
	res, err := job.Wait()
	if err != nil {
		return WireRow{}, err
	}
	if want := workloads.HotClassExpected(3, cfg.Iters); res.I != want {
		return WireRow{}, fmt.Errorf("%s/%s: result %d, want %d", fabric, mode, res.I, want)
	}

	row := WireRow{
		Fabric: fabric, Mode: mode, Trips: cfg.Trips,
		ColdBytes: bytesPer[0], ColdLat: lats[0],
		WarmBytes: medianInt64(bytesPer[1:]), WarmLat: medianDur(lats[1:]),
	}
	for _, n := range []*sodee.Node{n1, n2} {
		row.DeltaHits += n.Obs.Counter("sod_delta_hits_total").Value()
	}
	return row, nil
}

func medianInt64(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func medianDur(xs []time.Duration) time.Duration {
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// wireSimCluster builds a fresh two-node simulated cluster.
func wireSimCluster() (*sodee.Cluster, error) {
	prog := preprocess.MustPreprocess(workloads.HotClass(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c, err := sodee.NewCluster(prog, netsim.Gigabit,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	if err != nil {
		return nil, err
	}
	workloads.SeedHotClass(c.Nodes[1].VM, c.Prog)
	return c, nil
}

// wireTCPCluster builds a fresh two-node cluster over TCP loopback. The
// returned closer shuts both transports down.
func wireTCPCluster() (*sodee.Cluster, func(), error) {
	prog := preprocess.MustPreprocess(workloads.HotClass(),
		preprocess.Options{Mode: preprocess.ModeFaulting, Restore: true})
	c := sodee.NewTransportCluster(prog)
	tr1, err := netsim.NewTCPTransport(1, "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	tr2, err := netsim.NewTCPTransport(2, "127.0.0.1:0")
	if err != nil {
		tr1.Close() //nolint:errcheck
		return nil, nil, err
	}
	closer := func() {
		tr1.Close() //nolint:errcheck
		tr2.Close() //nolint:errcheck
	}
	if _, err := tr1.Connect(tr2.Addr()); err != nil {
		closer()
		return nil, nil, err
	}
	n1, err := c.AddNodeOn(sodee.NodeConfig{ID: 1, Preloaded: true}, tr1)
	if err != nil {
		closer()
		return nil, nil, err
	}
	n2, err := c.AddNodeOn(sodee.NodeConfig{ID: 2, Preloaded: true}, tr2)
	if err != nil {
		closer()
		return nil, nil, err
	}
	now := time.Now()
	n1.Members.Join(2, now)
	n2.Members.Join(1, now)
	workloads.SeedHotClass(n1.VM, c.Prog)
	return c, closer, nil
}

// Wire runs the full×delta comparison on both fabrics. Each cell gets a
// fresh cluster so one mode's link caches cannot leak into the other's
// measurement.
func Wire(cfg WireConfig) (*WireReport, error) {
	cfg.defaults()
	rep := &WireReport{Config: cfg}
	for _, mode := range []string{"full", "delta"} {
		sim, err := wireSimCluster()
		if err != nil {
			return nil, err
		}
		row, err := wireTrips(sim, "sim", mode, cfg)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)

		tcp, closeTCP, err := wireTCPCluster()
		if err != nil {
			return nil, err
		}
		row, err = wireTrips(tcp, "tcp", mode, cfg)
		closeTCP()
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	full, delta := rep.row("sim", "full"), rep.row("sim", "delta")
	if full != nil && delta != nil && full.WarmBytes > 0 {
		rep.WarmReduction = 1 - float64(delta.WarmBytes)/float64(full.WarmBytes)
	}
	// The delta path must earn its keep: warm repeat hops at or above 60%
	// of the full-state cost mean the snapshot cache is not eliding the
	// unchanged units, which is a bug, not a tuning matter.
	if full != nil && delta != nil && delta.WarmBytes*10 >= full.WarmBytes*6 {
		return nil, fmt.Errorf("wire: warm delta hop ships %dB vs %dB full — delta cache ineffective",
			delta.WarmBytes, full.WarmBytes)
	}
	return rep, nil
}

func (r *WireReport) row(fabric, mode string) *WireRow {
	for i := range r.Rows {
		if r.Rows[i].Fabric == fabric && r.Rows[i].Mode == mode {
			return &r.Rows[i]
		}
	}
	return nil
}

// RenderWire formats the comparison table.
func RenderWire(rep *WireReport) string {
	var b strings.Builder
	b.WriteString("\nWire — bytes per migration and capture→resume latency, full vs delta\n")
	b.WriteString("(cold = first hop on an empty link cache; warm = median repeat hop)\n\n")
	fmt.Fprintf(&b, "%-6s %-6s %6s %10s %10s %12s %12s %8s\n",
		"fabric", "mode", "trips", "cold", "warm", "cold lat", "warm lat", "hits")
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%-6s %-6s %6d %9dB %9dB %12s %12s %8d\n",
			r.Fabric, r.Mode, r.Trips, r.ColdBytes, r.WarmBytes,
			r.ColdLat.Round(time.Microsecond), r.WarmLat.Round(time.Microsecond),
			r.DeltaHits)
	}
	fmt.Fprintf(&b, "\nwarm-hop reduction (sim, delta vs full): %.1f%%\n\n", rep.WarmReduction*100)
	return b.String()
}

// WriteWireJSON writes the report to path (the BENCH_wire.json artifact).
func WriteWireJSON(rep *WireReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// CheckWireRegression compares the report's warm-hop cost against a
// committed baseline: warm delta bytes on the sim fabric may not grow
// more than maxGrow above the baseline, and warm latency gets the same
// bound plus a 5ms absolute floor (scheduler noise on loaded CI runners).
// A missing baseline passes — the first run creates it.
func CheckWireRegression(rep *WireReport, baselinePath string, maxGrow float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var base WireReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	cur, want := rep.row("sim", "delta"), base.row("sim", "delta")
	if cur == nil || want == nil {
		return nil
	}
	if want.WarmBytes > 0 && float64(cur.WarmBytes) > float64(want.WarmBytes)*(1+maxGrow) {
		return fmt.Errorf("wire regression: warm delta hop ships %dB, more than %.0f%% above baseline %dB (%s)",
			cur.WarmBytes, maxGrow*100, want.WarmBytes, baselinePath)
	}
	lat, floor := cur.WarmLat, want.WarmLat
	if floor > 0 && lat > floor+5*time.Millisecond &&
		float64(lat) > float64(floor)*(1+maxGrow) {
		return fmt.Errorf("wire regression: warm capture→resume %s, more than %.0f%% above baseline %s (%s)",
			lat.Round(time.Microsecond), maxGrow*100, floor.Round(time.Microsecond), baselinePath)
	}
	return nil
}
