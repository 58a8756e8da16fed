package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one predintd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string        // host:port it listens on
	done chan struct{} // closed once the process has exited and been reaped
	log  *tailLog
}

// startDaemon spawns predintd on a free loopback port and returns once
// it has announced its address.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// A harness that dies without stopping its daemons must not leave
	// them running. The signal fires when the thread that forked the
	// daemon ends, so the harness never ends a thread: the speed probe
	// hands its pinned threads back unpinned.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start predintd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: &tailLog{}}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.log.add(line)
			if a, ok := strings.CutPrefix(line, "predintd listening on http://"); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
		// Wait only after the last read of the pipe.
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("predintd exited before listening: %s", d.log)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("predintd did not announce its address within 30 s")
	}
}

// stop asks the daemon to drain, kills it if it has not exited within
// ten seconds, and returns once it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// tailLog keeps a daemon's last stderr lines for error reports.
type tailLog struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailLog) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lines = append(t.lines, line); len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailLog) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// cluster is the set of daemons serving one workload: the front, plus
// the workers behind it for scale-out.
type cluster struct {
	front   *daemon
	workers []*daemon
}

// startCluster spawns the workload's daemons — workers first, then the
// front pointed at them — and waits until the front's /readyz says 200.
func startCluster(ctx context.Context, bin string, w workload) (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < w.workers; i++ {
		d, err := startDaemon(ctx, bin)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.workers = append(c.workers, d)
		addrs = append(addrs, d.addr)
	}
	var args []string
	if len(addrs) > 0 {
		args = []string{"-workers", strings.Join(addrs, ","), "-shard-samples", strconv.Itoa(shardSamples)}
	}
	front, err := startDaemon(ctx, bin, args...)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.front = front
	if err := waitReady(ctx, front.addr); err != nil {
		c.stop()
		return nil, fmt.Errorf("%w: %s", err, front.log)
	}
	return c, nil
}

// shardSamples is the scale-out front's shard size: small enough that
// encode, RPC, decode and merge are a large share of a query's time.
const shardSamples = 512

func (c *cluster) daemons() []*daemon {
	out := append([]*daemon(nil), c.workers...)
	if c.front != nil {
		out = append(out, c.front)
	}
	return out
}

// stop stops every daemon and returns once all have been reaped.
func (c *cluster) stop() {
	for _, d := range c.daemons() {
		d.stop()
	}
}

func waitReady(ctx context.Context, addr string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("predintd not ready within 30 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// peakRSSMB sums VmHWM over the cluster's daemons.
func (c *cluster) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range c.daemons() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// counters sums every daemon's /metrics snapshot.
func (c *cluster) counters(ctx context.Context) (map[string]int64, error) {
	sum := map[string]int64{}
	for _, d := range c.daemons() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %w", err)
		}
		var snap map[string]int64
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode /metrics: %w", err)
		}
		for k, v := range snap {
			sum[k] += v
		}
	}
	return sum, nil
}
