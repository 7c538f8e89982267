package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one odcfpd process the benchmark started.
type daemon struct {
	bin    string
	args   []string
	url    string
	log    string
	cmd    *exec.Cmd
	exited chan struct{}
}

// freePorts reserves n loopback ports by binding and releasing them. A
// cluster's replica URLs have to be known before any replica starts.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startDaemon execs odcfpd with args, appending its stderr to logPath.
func startDaemon(bin string, args []string, url, logPath string) (*daemon, error) {
	d := &daemon{bin: bin, args: args, url: url, log: logPath}
	return d, d.start()
}

func (d *daemon) start() error {
	f, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stderr = f
	cmd.Stdout = f
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("starting odcfpd: %w", err)
	}
	d.cmd = cmd
	d.exited = make(chan struct{})
	go func() {
		cmd.Wait()
		f.Close()
		close(d.exited)
	}()
	return nil
}

// alive reports whether the process has not exited.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if !d.alive() {
			return fmt.Errorf("odcfpd %s exited during start-up (see %s)", d.url, d.log)
		}
		resp, err := c.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("odcfpd %s not healthy after %s", d.url, timeout)
}

// kill SIGKILLs the process and waits for it to be reaped.
func (d *daemon) kill() {
	if d.alive() {
		d.cmd.Process.Signal(syscall.SIGKILL)
	}
	<-d.exited
}

// stop asks for a graceful drain, killing the process if it has not exited
// within ten seconds.
func (d *daemon) stop() {
	if !d.alive() {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// procField reads one "Key: value kB" field of /proc/<pid>/status in kB.
func procField(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseInt(fields[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// procWchar reads the bytes a process has passed to write(2) so far.
func procWchar(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io: no wchar", pid)
}

// scrapeMetrics reads the daemon's /metrics counters by name.
func scrapeMetrics(ctx context.Context, base string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics: %w", base, err)
	}
	m := make(map[string]int64, len(snap))
	for _, s := range snap {
		m[s.Name] = s.Value
	}
	return m, nil
}

// counters is a per-replica sample of /metrics and /proc.
type counters struct {
	metrics []map[string]int64
	wchar   []int64
}

// delta sums name's growth across replicas between two samples.
func (c counters) delta(prev counters, name string) int64 {
	var d int64
	for i := range c.metrics {
		d += c.metrics[i][name] - prev.metrics[i][name]
	}
	return d
}

// wcharDelta sums the replicas' write growth between two samples.
func (c counters) wcharDelta(prev counters) int64 {
	var d int64
	for i := range c.wchar {
		d += c.wchar[i] - prev.wchar[i]
	}
	return d
}
