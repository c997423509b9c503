// Photoshare: the §IV.D iPhone scenario, placed by policy instead of by
// hand. A web server serves a photo-search request whose bottom frame is
// pinned (it holds the client socket); the photos live on a handset (a
// cold node with a slow CPU) behind a bandwidth-capped link. The request
// is submitted as a *chained* job: the chain planner sees a stack whose
// top frame is movable and whose tail is pinned, ships the search frame
// to the handset, and keeps serveRequest parked at the server as the
// chain's local tail — when the search pops on the phone, its hit count
// is forwarded straight back into the parked frame and the HTTP reply
// goes out from the server. The computation visits the data; the socket
// never moves; nobody names a destination.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/nfs"
	"repro/internal/workloads"
	"repro/sod"
)

const photos = 60 // every 5th is a beach shot

func hostPhotos(fs *nfs.Server) (beach int64) {
	for i := 0; i < photos; i++ {
		name := fmt.Sprintf("User/Media/DCIM/100APPLE/IMG_%04d.jpg", i)
		if i%5 == 0 {
			name = fmt.Sprintf("User/Media/DCIM/100APPLE/beach_%04d.jpg", i)
			beach++
		}
		fs.Host(nfs.File{Name: name, Host: 2, Size: 16 << 10, Seed: uint64(i)})
	}
	return beach
}

func main() {
	w := workloads.PhotoShare()
	app := sod.Compile(w.Prog)

	for _, kbps := range []int64{128, 764} {
		cluster, err := sod.NewCluster(app, sod.Kbps(kbps),
			sod.Node{ID: 1},                       // the web server
			sod.Node{ID: 2, Cold: true, Slow: 40}, // the handset
		)
		if err != nil {
			log.Fatal(err)
		}
		fs := nfs.NewServer(cluster.Network())
		wantBeach := hostPhotos(fs)

		for _, id := range []int{1, 2} {
			h := cluster.On(id)
			env := &workloads.PhotoEnv{FS: fs, Location: h.ID}
			env.Bind(h.VM())
			// The search's entry checkpoint models the request's server-side
			// prep (parse, auth): it holds the job in its compute phase long
			// enough for the millisecond-tick planner to see the stack. A
			// real server request is long-lived on its own.
			h.BindNative(workloads.CheckpointNative, func(args []sod.Value) (sod.Value, error) {
				time.Sleep(30 * time.Millisecond)
				return sod.Value{}, nil
			})
		}

		// Chain-only balancer. MinGain below zero states the request is
		// data-bound, not compute-bound: shipping the search to the slow
		// handset is worth it even at a throughput loss, because the
		// photos are there. The handset runs at about a seventh of the
		// server's speed, so the bar sits low enough to absorb that loss
		// plus the shaped link's round-trip penalty.
		bal := cluster.AutoBalance(sod.NeverPolicy(), sod.BalanceOptions{
			Interval: time.Millisecond,
			Chain:    true,
			ChainPlanner: sod.ChainPlanner{
				MinGain: -2,
			},
		})

		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		server := cluster.On(1)
		cl, err := cluster.ClientOn(1)
		if err != nil {
			log.Fatal(err)
		}
		job, err := cl.SubmitChain(ctx, "PhotoApp.serveRequest",
			server.Intern("User/Media/DCIM/100APPLE"), server.Intern("beach"))
		if err != nil {
			log.Fatal(err)
		}
		events, err := cl.Watch(ctx, job.ID())
		if err != nil {
			log.Fatal(err)
		}
		var chained, tailForwarded bool
		for ev := range events {
			fmt.Println("  " + ev.String())
			if ev.Kind == sod.JobMigrated && ev.Reason == sod.MigrateChained && ev.To == 2 {
				chained = true
			}
			if ev.Kind == sod.JobSegmentForwarded && ev.To == 1 {
				tailForwarded = true
			}
		}

		res, err := job.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		spans, err := cl.Trace(ctx, job.ID())
		if err != nil {
			log.Fatal(err)
		}
		var hop sod.TraceSpan
		for _, sp := range spans {
			if sp.Name == "migrate" {
				hop = sp
			}
		}
		fmt.Printf("[%4d kbps] found %d beach photos on the phone (want %d); search frame shipped in %v (%d bytes)\n",
			kbps, res.I, wantBeach, hop.Dur.Round(time.Microsecond), hop.Bytes)
		if res.I != wantBeach {
			log.Fatal("wrong hit count!")
		}
		if !chained || !tailForwarded {
			log.Fatal("the planner did not chain the request to the handset!")
		}
		bal.Stop()
		cancel()
	}
	fmt.Println("note: the serveRequest frame is pinned (it holds the socket); the planner kept it home as the chain's local tail.")
}
