// Command sodctl drives a running sodd cluster: submit workload jobs,
// query membership and load, and watch migrations happen.
//
//	sodctl -addr 127.0.0.1:7101 members
//	sodctl -addr 127.0.0.1:7101 submit -method main -args 42,200000
//	sodctl -addr 127.0.0.1:7101 run -method main -args 42,200000
//	sodctl -addr 127.0.0.1:7101 stats
//	sodctl -addr 127.0.0.1:7101 load
//	sodctl -addr 127.0.0.1:7101 watch -job 3
//	sodctl -addr 127.0.0.1:7101 watch -every 1s -for 10s
//	sodctl -addr 127.0.0.1:7101 top -every 1s -for 10s
//	sodctl -addr 127.0.0.1:7101 metrics
//	sodctl -addr 127.0.0.1:7101 trace -job 3
//
// "watch -job N" streams job N's lifecycle live — where it started,
// every migration with its direction and reason (pushed / stolen /
// rebalanced) and hop count, the result flushing home, completion — and
// exits when the job does. Without -job, watch falls back to polling the
// cluster-wide membership and stats tables.
//
// "top" is event-driven, not polled: one cluster-wide WatchAll stream
// (every node's event bus, fanned through the dialed daemon) feeds
// per-origin counters, redrawn every interval — submissions starting,
// jobs completing and failing, migrations, and lagged markers when this
// very stream falls behind and the daemon coalesces on it. -for 0 runs
// until interrupted.
//
// "metrics" dumps the dialed node's metrics registry in Prometheus text
// form (the same payload its -obs endpoint serves); "trace -job N"
// renders job N's migration timeline — capture/transfer/restore per
// hop, chain plants and forwards — as recorded at the job's origin
// node, which is the daemon to dial.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/sodee"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sodctl -addr HOST:PORT <members|submit|run|wait|stats|load|watch|top|metrics|trace> [options]")
	flag.PrintDefaults()
	os.Exit(2)
}

func parseArgs(s string) []int64 {
	if s == "" {
		return nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			log.Fatalf("bad -args value %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out
}

func printMembers(c *daemon.Client) {
	self, members, err := c.Members(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d members (%d):\n", self, len(members))
	for _, m := range members {
		fmt.Printf("  %3d  %-7s  heard %6s ago  %s\n",
			m.Node, m.State, m.SinceHeard.Round(time.Millisecond), m.Addr)
	}
}

func printStats(c *daemon.Client) {
	st, ss, err := c.Stats(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ticks %d  decisions %d  migrations %d (pushed %d, stolen %d, rebalanced %d, chained %d)  failed %d\n",
		st.Ticks, st.Decisions, st.Migrations, st.Pushed, st.Stolen, st.Rebalanced, st.Chained, st.FailedMigrations)
	if st.Chained > 0 {
		fmt.Printf("chains: %d executed, %d segments placed\n", st.Chained, st.ChainSegments)
	}
	if ss.RequestsSent+ss.RequestsServed > 0 {
		fmt.Printf("steal: sent %d (won %d)  served %d (granted %d, denied %d, failed transfers %d)\n",
			ss.RequestsSent, ss.Won, ss.RequestsServed, ss.Granted, ss.Denied, ss.FailedTransfers)
	}
	dests := make([]int, 0, len(st.MigrationsTo))
	for d := range st.MigrationsTo {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		fmt.Printf("  → node %d: %d\n", d, st.MigrationsTo[d])
	}
}

func printLoad(c *daemon.Client) {
	info, err := c.Load(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("local : node %d  runnable %d  cores %d  speed %.2f  rate %.0f/s\n",
		info.Local.Node, info.Local.Runnable, info.Local.Cores, info.Local.Speed, info.Local.StepRate)
	for _, p := range info.Peers {
		fmt.Printf("peer  : node %d  runnable %d  cores %d  speed %.2f  rate %.0f/s\n",
			p.Node, p.Runnable, p.Cores, p.Speed, p.StepRate)
	}
	dests := make([]int, 0, len(info.WireLatency))
	for d := range info.WireLatency {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		fmt.Printf("link  : → node %d  measured %s (EWMA)\n", d, info.WireLatency[d].Round(time.Microsecond))
	}
}

// watchJob streams one job's lifecycle events until its stream ends
// (completion, or losing the daemon).
func watchJob(c *daemon.Client, job uint64) {
	ch, cancel, err := c.Watch(context.Background(), job)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	sawTerminal := false
	for ev := range ch {
		fmt.Printf("%s  %s\n", ev.Time.Format("15:04:05.000"), ev)
		if ev.Terminal() {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		log.Fatal("watch stream ended before the job completed (daemon lost?)")
	}
}

// topRow accumulates one origin node's event counts for the current
// interval.
type topRow struct {
	events, started, completed, failed int
	migrated, lagged                   int
	dropped                            int64 // events coalesced away under this stream
}

func (r *topRow) count(ev sodee.JobEvent) {
	r.events++
	switch ev.Kind {
	case sodee.EvStarted:
		r.started++
	case sodee.EvCompleted:
		if ev.Err != "" {
			r.failed++
		} else {
			r.completed++
		}
	case sodee.EvMigrated:
		r.migrated++
	case sodee.EvLagged:
		r.lagged++
		r.dropped += ev.Result
	}
}

// topCluster renders cluster-wide activity from a single WatchAll
// stream: per-origin event rates over each interval, no polling.
func topCluster(c *daemon.Client, every, dur time.Duration) {
	ch, cancel, err := c.WatchAll(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	rows := make(map[int]*topRow)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	var end <-chan time.Time
	if dur > 0 {
		end = time.After(dur)
	}
	render := func() {
		origins := make([]int, 0, len(rows))
		for o := range rows {
			origins = append(origins, o)
		}
		sort.Ints(origins)
		secs := every.Seconds()
		fmt.Printf("%s  %-6s %8s %8s %8s %6s %6s %7s\n",
			time.Now().Format("15:04:05"), "origin", "ev/s", "start/s", "done/s", "fail", "migr", "lagged")
		var tot topRow
		for _, o := range origins {
			r := rows[o]
			fmt.Printf("          %-6d %8.0f %8.0f %8.0f %6d %6d %7d\n",
				o, float64(r.events)/secs, float64(r.started)/secs,
				float64(r.completed)/secs, r.failed, r.migrated, r.lagged)
			tot.events += r.events
			tot.started += r.started
			tot.completed += r.completed
			tot.failed += r.failed
			tot.migrated += r.migrated
			tot.lagged += r.lagged
			tot.dropped += r.dropped
		}
		if len(origins) != 1 {
			fmt.Printf("          %-6s %8.0f %8.0f %8.0f %6d %6d %7d\n",
				"total", float64(tot.events)/secs, float64(tot.started)/secs,
				float64(tot.completed)/secs, tot.failed, tot.migrated, tot.lagged)
		}
		if tot.dropped > 0 {
			fmt.Printf("          (stream lagging: %d events coalesced away this interval)\n", tot.dropped)
		}
		rows = make(map[int]*topRow)
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				render()
				log.Fatal("cluster stream closed (daemon lost, or this watcher was evicted for lagging)")
			}
			r := rows[ev.Origin]
			if r == nil {
				r = &topRow{}
				rows[ev.Origin] = r
			}
			r.count(ev)
		case <-ticker.C:
			render()
		case <-end:
			render()
			return
		}
	}
}

func main() {
	addr := flag.String("addr", "", "daemon control address")
	flag.Usage = usage
	flag.Parse()
	if *addr == "" || flag.NArg() == 0 {
		usage()
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]

	c, err := daemon.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	switch cmd {
	case "members":
		printMembers(c)

	case "stats":
		printStats(c)

	case "load":
		printLoad(c)

	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		method := fs.String("method", "main", "entry method")
		args := fs.String("args", "", "comma-separated integer arguments")
		chain := fs.Bool("chain", false, "chain-owned: let the planner split the stack into a forward pipeline (daemon must run -chain)")
		fs.Parse(rest) //nolint:errcheck
		submit := c.Submit
		if *chain {
			submit = c.SubmitChain
		}
		j, err := submit(context.Background(), *method, parseArgs(*args)...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d submitted\n", j.ID())

	case "wait":
		fs := flag.NewFlagSet("wait", flag.ExitOnError)
		job := fs.Uint64("job", 0, "job id")
		timeout := fs.Duration("timeout", time.Minute, "wait deadline")
		fs.Parse(rest) //nolint:errcheck
		res, done, errMsg, err := c.Wait(context.Background(), *job, *timeout)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case !done:
			fmt.Printf("job %d still running\n", *job)
		case errMsg != "":
			fmt.Printf("job %d failed: %s\n", *job, errMsg)
		default:
			fmt.Printf("job %d = %d\n", *job, res)
		}

	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		method := fs.String("method", "main", "entry method")
		args := fs.String("args", "", "comma-separated integer arguments")
		timeout := fs.Duration("timeout", time.Minute, "wait deadline")
		fs.Parse(rest) //nolint:errcheck
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		res, err := c.Run(ctx, *method, parseArgs(*args)...)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("result: %d\n", res)

	case "watch":
		fs := flag.NewFlagSet("watch", flag.ExitOnError)
		job := fs.Uint64("job", 0, "job id to stream (0 = poll cluster tables instead)")
		every := fs.Duration("every", time.Second, "poll interval (table mode)")
		dur := fs.Duration("for", 10*time.Second, "total watch duration (table mode)")
		fs.Parse(rest) //nolint:errcheck
		if *job != 0 {
			watchJob(c, *job)
			return
		}
		end := time.Now().Add(*dur)
		for {
			printMembers(c)
			printStats(c)
			fmt.Println()
			if time.Now().After(end) {
				return
			}
			time.Sleep(*every)
		}

	case "top":
		fs := flag.NewFlagSet("top", flag.ExitOnError)
		every := fs.Duration("every", time.Second, "redraw interval")
		dur := fs.Duration("for", 10*time.Second, "total duration (0 = until interrupted)")
		fs.Parse(rest) //nolint:errcheck
		topCluster(c, *every, *dur)

	case "metrics":
		snap, err := c.Metrics(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(snap.RenderPrometheus())

	case "trace":
		fs := flag.NewFlagSet("trace", flag.ExitOnError)
		job := fs.Uint64("job", 0, "job id (dial the daemon the job was submitted to)")
		fs.Parse(rest) //nolint:errcheck
		if *job == 0 {
			log.Fatal("trace: -job is required")
		}
		spans, err := c.Trace(context.Background(), *job)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("job %d: %d spans\n", *job, len(spans))
		fmt.Print(obs.RenderTrace(spans))

	default:
		usage()
	}
}
