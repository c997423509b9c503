// Roaming: the §IV.C autonomous-task-roaming scenario. A text-search
// job visits five data servers; with SOD the searchFile frame migrates to
// each file's host and only the verdicts cross the (slow) network, versus
// pulling every byte over NFS without migration.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfs"
	"repro/internal/workloads"
	"repro/sod"
)

const (
	servers  = 5
	fileSize = 2 << 20 // scaled from the paper's 300 MB per server
)

func buildCluster() (*sod.Cluster, *nfs.Server, *gate, []string) {
	w := workloads.TextSearch()
	app := sod.Compile(w.Prog)
	nodes := []sod.Node{{ID: 1}}
	for i := 0; i < servers; i++ {
		nodes = append(nodes, sod.Node{ID: 2 + i})
	}
	cluster, err := sod.NewCluster(app,
		netsim.LinkSpec{BandwidthBps: 100_000_000, Latency: 2 * time.Millisecond}, // WAN-ish
		nodes...)
	if err != nil {
		log.Fatal(err)
	}
	fs := nfs.NewServer(cluster.Network())
	var names []string
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("grid/f%d.dat", i)
		fs.Host(nfs.File{Name: name, Host: 2 + i, Size: fileSize, Seed: uint64(i + 1),
			Needle: "sodneedle", NeedleOff: int64(fileSize / 2)})
		names = append(names, name)
	}
	g := newGate()
	for _, n := range nodes {
		h := cluster.On(n.ID)
		env := &workloads.SearchEnv{FS: fs, Location: h.ID}
		env.Bind(h.VM())
		h.BindNative(workloads.CheckpointNative, g.native())
	}
	return cluster, fs, g, names
}

type gate struct {
	armed   bool
	reached chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{reached: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (g *gate) native() func(args []sod.Value) (sod.Value, error) {
	return func(args []sod.Value) (sod.Value, error) {
		if g.armed {
			g.reached <- struct{}{}
			<-g.release
		}
		return sod.Value{}, nil
	}
}

func run(roam bool) time.Duration {
	cluster, fs, g, names := buildCluster()
	fs.ClearCaches()
	g.armed = roam
	home := cluster.On(1)
	arr, err := workloads.MakeNameArray(home.VM(), names)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	job, err := home.Start("searchMain", sod.RefVal(arr), home.Intern("sodneedle"))
	if err != nil {
		log.Fatal(err)
	}
	if roam {
		for i := 0; i < servers; i++ {
			<-g.reached
			host := 2 + i
			done := make(chan error, 1)
			go func() {
				_, merr := home.Migrate(job, sod.Migration{Frames: 1, Dest: host, Flow: sod.ReturnHome})
				done <- merr
			}()
			time.Sleep(time.Millisecond)
			g.release <- struct{}{}
			if merr := <-done; merr != nil {
				log.Fatal(merr)
			}
		}
	}
	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}
	if res.I != servers {
		log.Fatalf("found needle in %d files, want %d", res.I, servers)
	}
	return time.Since(start)
}

func main() {
	noMig := run(false)
	roam := run(true)
	fmt.Printf("search %d servers without migration: %v\n", servers, noMig.Round(time.Millisecond))
	fmt.Printf("search %d servers with SOD roaming:   %v\n", servers, roam.Round(time.Millisecond))
	fmt.Printf("speedup: %.2fx (paper: 3.39x over 10 servers)\n", float64(noMig)/float64(roam))
}
