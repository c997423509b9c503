package experiments

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/sodee"
	"repro/internal/value"
	"repro/internal/workloads"
)

// Table7Row is one bandwidth point of the §IV.D device experiment.
type Table7Row struct {
	BandwidthKbps int64
	Capture       time.Duration
	TransferState time.Duration // t2: captured state
	TransferClass time.Duration // t3: class files
	Restore       time.Duration
	Latency       time.Duration
	StateBytes    int64 // captured state shipped to the device
	ClassBytes    int64 // class files shipped with it
	Found         int64 // photos found on the device (sanity)
}

// deviceSlow is the handset's per-instruction throttle: with the
// interpreter's own cost it lands near the iPhone's 412 MHz ARM, about
// 15× slower than the server.
const deviceSlow = 40

// Table7Bandwidths are the paper's router settings (764 = "unlimited" as
// measured over their Wi-Fi).
var Table7Bandwidths = []int64{50, 128, 384, 764}

// Table7 reproduces the migration-latency-vs-bandwidth experiment: a
// photo-sharing server (SODEE, node 1) pushes its listPhotos frame to an
// iPhone-class device (node 2) over a bandwidth-capped link. The device
// has no tool interface: restoration happens at "Java level" with Java
// serialization, on a slow CPU (deviceSlow).
func Table7(bandwidthKbps int64) (*Table7Row, error) {
	row, _, err := table7(bandwidthKbps)
	return row, err
}

// table7 runs one bandwidth point and also returns the cluster it ran on,
// so tests can inspect the handset.
func table7(bandwidthKbps int64) (*Table7Row, *sodee.Cluster, error) {
	w := workloads.PhotoShare()
	prog := progFor(SysSODEE, w)
	cluster, err := sodee.NewCluster(prog, netsim.Kbps(bandwidthKbps),
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Agentless: true, Slow: deviceSlow},
	)
	if err != nil {
		return nil, nil, err
	}
	// The cluster fabric link between server and device is capped; the
	// device's photos live on the device.
	fs := nfs.NewServer(cluster.Net)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("User/Media/DCIM/100APPLE/IMG_%04d.jpg", i)
		if i%3 == 0 {
			name = fmt.Sprintf("User/Media/DCIM/100APPLE/beach_%04d.jpg", i)
		}
		fs.Host(nfs.File{Name: name, Host: 2, Size: 24 << 10, Seed: uint64(900 + i)})
	}
	gate := newCheckpointGate(true)
	for _, node := range cluster.Nodes {
		workloads.BindCommon(node.VM)
		node.VM.BindNativeIfDeclared(workloads.CheckpointNative, gate.native)
		id := node.ID
		env := &workloads.PhotoEnv{FS: fs, Location: func() int { return id }}
		env.Bind(node.VM)
	}
	server := cluster.Nodes[1]

	job, err := server.Mgr.StartJob("PhotoApp.serveRequest",
		value.RefVal(server.VM.Intern("User/Media/DCIM/100APPLE")),
		value.RefVal(server.VM.Intern("beach")))
	if err != nil {
		return nil, nil, err
	}
	<-gate.reached // listPhotos entered
	gate.disarm()
	done := make(chan error, 1)
	var mm *sodee.MigrationMetrics
	go func() {
		var merr error
		mm, merr = server.Mgr.MigrateSOD(job, sodee.SODOptions{
			NFrames: 1, Dest: 2, Flow: sodee.FlowReturnHome,
		})
		done <- merr
	}()
	if err := gate.releaseParked(job.Thread()); err != nil {
		return nil, nil, err
	}
	if merr := <-done; merr != nil {
		return nil, nil, merr
	}
	res, err := job.Wait()
	if err != nil {
		return nil, nil, err
	}

	// Split the measured transfer between state and class bytes by their
	// share of the payload (the paper reports t2 and t3 separately; our
	// migrate message carries both back-to-back on the same link).
	total := mm.StateBytes + mm.ClassBytes
	stateShare := float64(mm.StateBytes) / float64(total)
	row := &Table7Row{
		BandwidthKbps: bandwidthKbps,
		Capture:       mm.Capture,
		TransferState: time.Duration(float64(mm.Transfer) * stateShare),
		TransferClass: time.Duration(float64(mm.Transfer) * (1 - stateShare)),
		Restore:       mm.Restore,
		Latency:       mm.Latency,
		StateBytes:    mm.StateBytes,
		ClassBytes:    mm.ClassBytes,
		Found:         res.I,
	}
	return row, cluster, nil
}

// Table7All runs every bandwidth point.
func Table7All() ([]Table7Row, error) {
	var rows []Table7Row
	for _, bw := range Table7Bandwidths {
		r, err := Table7(bw)
		if err != nil {
			return nil, fmt.Errorf("table7 %d kbps: %w", bw, err)
		}
		rows = append(rows, *r)
	}
	return rows, nil
}
