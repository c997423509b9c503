package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/membership"
	"repro/internal/workloads"
	"repro/sod"
)

// buildSodd compiles the daemon from the repository at root into dir and
// returns the binary's path. It runs once, before any timing starts.
func buildSodd(ctx context.Context, root, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "sodd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/sodd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build sodd: %v\n%s", err, out)
	}
	return bin, nil
}

// procSet tracks every child process the benchmark started, so the
// watchdog can kill them all before it gives up on a wedged run.
type procSet struct {
	mu    sync.Mutex
	procs map[*daemonProc]bool
}

func newProcSet() *procSet { return &procSet{procs: make(map[*daemonProc]bool)} }

func (ps *procSet) killAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for p := range ps.procs {
		p.cmd.Process.Kill() //nolint:errcheck // best effort before exiting
	}
}

// daemonProc is one sodd child process.
type daemonProc struct {
	id     int
	addr   string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// startDaemon launches sodd on an ephemeral loopback port and reads the
// address it bound from its first line of output.
func startDaemon(ps *procSet, bin string, id int, join string, flags []string) (*daemonProc, error) {
	args := []string{"-id", strconv.Itoa(id), "-listen", "127.0.0.1:0", "-quiet"}
	if join != "" {
		args = append(args, "-join", join)
	}
	cmd := exec.Command(bin, append(args, flags...)...)
	cmd.Stderr = os.Stderr
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sodd %d: %w", id, err)
	}
	p := &daemonProc{id: id, cmd: cmd, exited: make(chan struct{})}
	ps.mu.Lock()
	ps.procs[p] = true
	ps.mu.Unlock()

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			addrc <- parseListenLine(sc.Text())
		}
		close(addrc)
		io.Copy(io.Discard, out) //nolint:errcheck // draining until the child exits
		cmd.Wait()               //nolint:errcheck // exit status is irrelevant after stop
		ps.mu.Lock()
		delete(ps.procs, p)
		ps.mu.Unlock()
		close(p.exited)
	}()
	select {
	case addr := <-addrc:
		if addr == "" {
			p.stop()
			return nil, fmt.Errorf("sodd %d: no listen address on stdout", id)
		}
		p.addr = addr
		return p, nil
	case <-time.After(10 * time.Second):
		p.stop()
		return nil, fmt.Errorf("sodd %d: did not report its address within 10s", id)
	}
}

// parseListenLine extracts ADDR from "sodd: node N listening on ADDR (...".
func parseListenLine(line string) string {
	const marker = " listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		return ""
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// stop asks the daemon to shut down, kills it if it has not exited within
// five seconds, and returns once it has been reaped.
func (p *daemonProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.exited
	}
}

// peakRSSMB is the process's VmHWM in MB, or 0 if it cannot be read.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// sodCluster is three sodd processes: node 1 is the seed, 2 and 3 join it.
type sodCluster struct {
	procs []*daemonProc
}

func (c *sodCluster) stop() {
	var wg sync.WaitGroup
	for _, p := range c.procs {
		wg.Add(1)
		go func(p *daemonProc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// rssMB sums the daemons' peak resident sets.
func (c *sodCluster) rssMB() float64 {
	var total float64
	for _, p := range c.procs {
		total += peakRSSMB(p.cmd.Process.Pid)
	}
	return total
}

// startCluster brings a cluster up: spawn the three daemons, wait until
// every daemon's view shows all three Alive, then run one checked job
// through each daemon. Its duration is one setup_s sample.
func startCluster(ctx context.Context, ps *procSet, bin string, nodeFlags [3][]string) (*sodCluster, error) {
	c := &sodCluster{}
	seed := ""
	for i := 0; i < 3; i++ {
		p, err := startDaemon(ps, bin, i+1, seed, nodeFlags[i])
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		if i == 0 {
			seed = p.addr
		}
	}
	if err := c.checkReady(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *sodCluster) checkReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for _, p := range c.procs {
		cl, err := sod.DialTimeout(p.addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dial node %d: %w", p.id, err)
		}
		err = waitAllAlive(ctx, cl, len(c.procs))
		if err == nil {
			err = smokeJob(ctx, cl, int64(p.id))
		}
		cl.Close() //nolint:errcheck // set-up connection only
		if err != nil {
			return fmt.Errorf("node %d: %w", p.id, err)
		}
	}
	return nil
}

// waitAllAlive polls one daemon's membership view until it lists n
// members, all Alive.
func waitAllAlive(ctx context.Context, cl sod.Client, n int) error {
	for {
		ms, err := cl.Members(ctx)
		if err != nil {
			return fmt.Errorf("members: %w", err)
		}
		alive := 0
		for _, m := range ms {
			if m.State == membership.Alive {
				alive++
			}
		}
		if alive == n && len(ms) == n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("view has %d/%d members alive: %w", alive, n, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// smokeJob runs one small cruncher job and checks its result.
func smokeJob(ctx context.Context, cl sod.Client, seed int64) error {
	h, err := cl.Submit(ctx, "main", sod.Int(seed), sod.Int(1000))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	v, err := h.Wait(ctx)
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if want := workloads.CruncherExpected(seed, 1000); v.I != want {
		return fmt.Errorf("smoke job returned %d, want %d", v.I, want)
	}
	return nil
}
