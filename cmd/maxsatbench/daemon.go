package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDaemon compiles the repository's cmd/maxsatd into dir. The import
// path resolves from the repository root and from this benchmark's module
// alike.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "maxsatd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/maxsatd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building maxsatd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running maxsatd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	log    *logWatcher
	base   string // http://127.0.0.1:port
	client *http.Client
}

// logWatcher keeps the daemon's log and reports the listen address from its
// "listening on" line.
type logWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1; sent once
	sent bool
}

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		const marker = "listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if end := strings.IndexAny(rest, " \n"); end >= 0 {
				w.addr <- rest[:end]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon execs bin with the common flags plus extra and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(bin string, extra ...string) (*daemon, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-drain", "10s"}, extra...)
	d := &daemon{
		cmd:    exec.Command(bin, args...),
		exited: make(chan error, 1),
		log:    &logWatcher{addr: make(chan string, 1)},
		client: &http.Client{
			Timeout: 2 * time.Minute,
			// Two closed-loop clients need at most two keep-alive connections.
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		},
	}
	d.cmd.Stderr = d.log
	// The daemon must not outlive the benchmark, even a killed one.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.exited <- d.cmd.Wait() }()
	select {
	case addr := <-d.log.addr:
		d.base = "http://" + addr
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("maxsatd exited before listening: %v\n%s", err, d.log)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("maxsatd did not listen within 30s\n%s", d.log)
	}
	deadline := start.Add(2 * time.Minute)
	for {
		code, _, err := d.do("GET", "/readyz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("maxsatd not ready within 2m\n%s", d.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, time.Since(start), nil
}

// do sends one request and reads the whole response body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stats is the subset of GET /stats the benchmark reads.
type stats struct {
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CertRejected  int64 `json:"cert_rejected"`
	Recovered     int64 `json:"recovered"`
	SessionSolves int64 `json:"session_solves"`
	SessionReused int64 `json:"session_reused"`
}

// minus returns the counter increases from b to s.
func (s stats) minus(b stats) stats {
	return stats{
		CacheHits:     s.CacheHits - b.CacheHits,
		CacheMisses:   s.CacheMisses - b.CacheMisses,
		CertRejected:  s.CertRejected - b.CertRejected,
		Recovered:     s.Recovered - b.Recovered,
		SessionSolves: s.SessionSolves - b.SessionSolves,
		SessionReused: s.SessionReused - b.SessionReused,
	}
}

func (d *daemon) stats() (stats, error) {
	var s stats
	code, b, err := d.do("GET", "/stats", nil)
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("GET /stats: http %d", code)
	}
	return s, json.Unmarshal(b, &s)
}

// memMB returns a memory field of /proc/<pid>/status, such as VmRSS (the
// resident set) or VmHWM (its peak), in MB.
func (d *daemon) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, d.cmd.Process.Pid)
}

// stop sends SIGTERM (graceful drain) and waits for the process to exit,
// killing it if the drain overruns.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is reaped below
	select {
	case err := <-d.exited:
		return err
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("maxsatd ignored SIGTERM for 20s")
	}
}
