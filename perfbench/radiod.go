package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
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

// daemon is one radiod child process and an HTTP client for it.
type daemon struct {
	cmd      *exec.Cmd
	exited   chan struct{}
	base     string
	http     *http.Client
	log      *os.File
	stopOnce sync.Once
}

// startDaemon execs radiod on a free loopback port with a fresh data
// directory and waits until /healthz answers. It retries on another port if
// the first one was taken in between.
func startDaemon(ctx context.Context, bin, dataDir string, workers int, logPath string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStart(ctx, bin, dataDir, workers, logPath)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func tryStart(ctx context.Context, bin, dataDir string, workers int, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-data", dataDir}
	if workers > 0 {
		args = append(args, "-workers", strconv.Itoa(workers))
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start radiod: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		base:   "http://" + addr,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
		log: logf,
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("radiod exited during start-up (see %s)", logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		default:
		}
		if d.healthy(ctx) {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("radiod did not become healthy within 15s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after ten seconds. It returns once the process is
// gone; later calls do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		d.http.CloseIdleConnections()
		d.log.Close()
	})
}

// statusError is a non-2xx answer: the request was refused.
type statusError struct {
	method, path string
	code         int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.code, strings.TrimSpace(e.body))
}

// call performs one HTTP exchange and returns the response body. The span
// covers the whole exchange, body included.
func (d *daemon) call(ctx context.Context, tr *tracer, parent int, name, method, path string, body []byte) ([]byte, error) {
	id := tr.start(name, parent)
	defer tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, &statusError{method: method, path: path, code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

// getJSON calls and decodes the JSON answer into v.
func (d *daemon) getJSON(ctx context.Context, tr *tracer, parent int, name, method, path string, body []byte, v any) error {
	data, err := d.call(ctx, tr, parent, name, method, path, body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpu reads the daemon's CPU time so far, user plus system.
func (d *daemon) cpu() (time.Duration, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(data)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSSMB reads VmHWM, the daemon's peak resident set.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics.
func (d *daemon) scrape(ctx context.Context) ([]promSample, error) {
	data, err := d.call(ctx, nil, 0, "", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(string(data))
}
