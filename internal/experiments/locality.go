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

// Table VI / §IV.C configuration. File sizes are scaled from the paper's
// 600 MB (Table VI) and 300 MB (roaming) — shapes depend on the ratio of
// NFS transfer time to local read time, which shaping preserves.
const (
	Table6FileSize = 8 << 20 // per file, ×3 files
	Table6XenImage = 24 << 20
	RoamFileSize   = 2 << 20
	RoamServers    = 10
	jessicaChunkIO = 10 * time.Millisecond // per-64KiB-chunk I/O-library cost
)

// Table6Row is one system's locality measurement.
type Table6Row struct {
	System   System
	NoMig    time.Duration // started and finished on the NFS client
	Mig      time.Duration // migrated to the NFS server before reading
	OnServer time.Duration // started on the NFS server (reference)
	Gain     float64       // (NoMig - Mig) / NoMig × 100
}

// localitySetup builds a fresh 2-node cluster + corpus for one run.
func localitySetup(sys System) (*sodee.Cluster, map[int]*xenGuest, *nfs.Server, *checkpointGate, error) {
	w := workloads.TextSearch()
	prog := progFor(sys, w)
	cluster, err := sodee.NewCluster(prog, netsim.Gigabit,
		sodee.NodeConfig{ID: 1, Preloaded: true},
		sodee.NodeConfig{ID: 2, Preloaded: true},
	)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	guests := serveBaselines(cluster, sys, Table6XenImage)
	fs := nfs.NewServer(cluster.Net)
	for i := 0; i < 3; i++ {
		fs.Host(nfs.File{
			Name: fmt.Sprintf("corpus/f%d.txt", i), Host: 2,
			Size: Table6FileSize, Seed: uint64(100 + i),
		})
	}
	gate := newCheckpointGate(false)
	for _, node := range cluster.Nodes {
		workloads.BindCommon(node.VM)
		node.VM.BindNativeIfDeclared(workloads.CheckpointNative, gate.native)
		// Execution runs at its node, except that a Xen guest runs
		// wherever its last live migration moved it.
		id := node.ID
		env := &workloads.SearchEnv{FS: fs, Location: func() int { return id }}
		if g := guests[id]; g != nil {
			env.Location = g.location
		}
		if sys == SysJessica2 {
			env.ChunkPenalty = jessicaChunkIO
		}
		env.Bind(node.VM)
	}
	return cluster, guests, fs, gate, nil
}

// searchArgs prepares (names, needle) on a node's VM.
func searchArgs(n *sodee.Node) []value.Value {
	names, err := workloads.MakeNameArray(n.VM, []string{"corpus/f0.txt", "corpus/f1.txt", "corpus/f2.txt"})
	if err != nil {
		panic(err)
	}
	return []value.Value{value.RefVal(names), value.RefVal(n.VM.Intern("zzqneverpresentzzq"))}
}

func runSearch(cluster *sodee.Cluster, fs *nfs.Server, startOn int) (time.Duration, error) {
	fs.ClearCaches()
	n := cluster.Nodes[startOn]
	start := time.Now()
	job, err := n.Mgr.StartJob("searchMain", searchArgs(n)...)
	if err != nil {
		return 0, err
	}
	if _, err := job.Wait(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func runSearchMigrated(sys System, cluster *sodee.Cluster, guests map[int]*xenGuest, fs *nfs.Server, gate *checkpointGate) (time.Duration, error) {
	fs.ClearCaches()
	home := cluster.Nodes[1]
	gate.mu.Lock()
	gate.armed = true
	gate.mu.Unlock()
	start := time.Now()
	job, err := home.Mgr.StartJob("searchMain", searchArgs(home)...)
	if err != nil {
		return 0, err
	}
	<-gate.reached // first searchFile entered, before any read
	gate.disarm()
	done := make(chan error, 1)
	go func() {
		var merr error
		switch sys {
		case SysSODEE:
			// Move the whole execution to the server (Fig 1b: total
			// migration), as the paper's run does.
			_, merr = home.Mgr.MigrateSOD(job, sodee.SODOptions{NFrames: 2, Dest: 2, Flow: sodee.FlowTotal})
		case SysJessica2:
			_, merr = migrateThread(home, job, 2)
		case SysXen:
			_, merr = migrateVM(home, guests[home.ID], job, 2)
		default:
			merr = fmt.Errorf("unsupported system %v", sys)
		}
		done <- merr
	}()
	if sys == SysXen {
		gate.release <- struct{}{} // Xen migrates live
	} else if err := gate.releaseParked(job.Thread()); err != nil {
		return 0, err
	}
	if merr := <-done; merr != nil {
		return 0, merr
	}
	if _, err := job.Wait(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Table6 reproduces the locality-gain comparison for the NFS text search.
func Table6() ([]Table6Row, error) {
	var rows []Table6Row
	for _, sys := range []System{SysJessica2, SysXen, SysSODEE} {
		cluster, _, fs, _, err := localitySetup(sys)
		if err != nil {
			return nil, err
		}
		noMig, err := runSearch(cluster, fs, 1)
		if err != nil {
			return nil, fmt.Errorf("table6 %v nomig: %w", sys, err)
		}
		onServer, err := runSearch(cluster, fs, 2)
		if err != nil {
			return nil, fmt.Errorf("table6 %v onserver: %w", sys, err)
		}
		// Fresh cluster for the migrated run (heaps/threads were consumed).
		cluster2, guests2, fs2, gate2, err := localitySetup(sys)
		if err != nil {
			return nil, err
		}
		mig, err := runSearchMigrated(sys, cluster2, guests2, fs2, gate2)
		if err != nil {
			return nil, fmt.Errorf("table6 %v mig: %w", sys, err)
		}
		rows = append(rows, Table6Row{
			System: sys, NoMig: noMig, Mig: mig, OnServer: onServer,
			Gain: float64(noMig-mig) / float64(noMig) * 100,
		})
	}
	return rows, nil
}

// RoamResult is the §IV.C autonomous-task-roaming measurement.
type RoamResult struct {
	Servers    int
	NoMig      time.Duration
	Roaming    time.Duration
	Speedup    float64
	Migrations int
}

// Roaming reproduces the WAN-grid roaming experiment: ten files on ten
// servers; without migration all data crosses the (slow) links, with SOD
// roaming the searchFile frame visits each server in turn.
func Roaming() (*RoamResult, error) {
	build := func() (*sodee.Cluster, *nfs.Server, *checkpointGate, []string, error) {
		w := workloads.TextSearch()
		prog := progFor(SysSODEE, w)
		cfgs := []sodee.NodeConfig{{ID: 1, Preloaded: true}}
		for i := 0; i < RoamServers; i++ {
			cfgs = append(cfgs, sodee.NodeConfig{ID: 2 + i, Preloaded: true})
		}
		// WAN-ish links: 200 Mbps, 2 ms.
		cluster, err := sodee.NewCluster(prog, netsim.LinkSpec{BandwidthBps: 200_000_000, Latency: 2 * time.Millisecond}, cfgs...)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		fs := nfs.NewServer(cluster.Net)
		var names []string
		for i := 0; i < RoamServers; i++ {
			name := fmt.Sprintf("grid/f%d.dat", i)
			fs.Host(nfs.File{Name: name, Host: 2 + i, Size: RoamFileSize, Seed: uint64(500 + i)})
			names = append(names, name)
		}
		gate := newCheckpointGate(false)
		for _, node := range cluster.Nodes {
			workloads.BindCommon(node.VM)
			node.VM.BindNativeIfDeclared(workloads.CheckpointNative, gate.native)
			id := node.ID
			env := &workloads.SearchEnv{FS: fs, Location: func() int { return id }}
			env.Bind(node.VM)
		}
		return cluster, fs, gate, names, nil
	}

	runJob := func(cluster *sodee.Cluster, names []string) (*sodee.Job, error) {
		home := cluster.Nodes[1]
		arr, err := workloads.MakeNameArray(home.VM, names)
		if err != nil {
			return nil, err
		}
		return home.Mgr.StartJob("searchMain",
			value.RefVal(arr), value.RefVal(home.VM.Intern("zzqneverpresentzzq")))
	}

	// Run A: no migration.
	clusterA, fsA, _, namesA, err := build()
	if err != nil {
		return nil, err
	}
	fsA.ClearCaches()
	start := time.Now()
	jobA, err := runJob(clusterA, namesA)
	if err != nil {
		return nil, err
	}
	if _, err := jobA.Wait(); err != nil {
		return nil, err
	}
	noMig := time.Since(start)

	// Run B: roam the searchFile frame to each hosting server.
	cluster, fs, gate, names, err := build()
	if err != nil {
		return nil, err
	}
	fs.ClearCaches()
	gate.mu.Lock()
	gate.armed = true
	gate.mu.Unlock()
	home := cluster.Nodes[1]
	start = time.Now()
	job, err := runJob(cluster, names)
	if err != nil {
		return nil, err
	}
	migrations := 0
	for i := 0; i < RoamServers; i++ {
		<-gate.reached
		host := 2 + i
		done := make(chan error, 1)
		go func() {
			_, merr := home.Mgr.MigrateSOD(job, sodee.SODOptions{
				NFrames: 1, Dest: host, Flow: sodee.FlowReturnHome,
			})
			done <- merr
		}()
		if err := gate.releaseParked(job.Thread()); err != nil {
			return nil, err
		}
		if merr := <-done; merr != nil {
			return nil, fmt.Errorf("roam hop %d: %w", i, merr)
		}
		migrations++
	}
	if _, err := job.Wait(); err != nil {
		return nil, err
	}
	roam := time.Since(start)

	return &RoamResult{
		Servers: RoamServers, NoMig: noMig, Roaming: roam,
		Speedup: float64(noMig) / float64(roam), Migrations: migrations,
	}, nil
}
