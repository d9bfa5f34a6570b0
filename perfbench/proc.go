package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks every process the benchmark starts, so that every exit
// path (normal return, error, panic, deadline, signal) can stop them and
// wait for them.
var children struct {
	sync.Mutex
	procs map[*exec.Cmd]chan struct{}
}

func track(cmd *exec.Cmd, done chan struct{}) {
	children.Lock()
	defer children.Unlock()
	if children.procs == nil {
		children.procs = make(map[*exec.Cmd]chan struct{})
	}
	children.procs[cmd] = done
}

func untrack(cmd *exec.Cmd) {
	children.Lock()
	defer children.Unlock()
	delete(children.procs, cmd)
}

// reapAll kills every tracked child and waits until each has exited.
func reapAll() {
	children.Lock()
	procs := make(map[*exec.Cmd]chan struct{}, len(children.procs))
	for c, d := range children.procs {
		procs[c] = d
	}
	children.Unlock()
	for c, done := range procs {
		_ = c.Process.Kill()
		<-done
	}
}

// tailBuffer keeps the last max bytes written to it: a child's stderr,
// kept for error messages without growing without bound.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// child is one started program: a viewserverd or viewgen process.
type child struct {
	cmd     *exec.Cmd
	started time.Time
	stderr  *tailBuffer
	done    chan struct{} // closed once Wait returned
	waitErr error
}

// startChild starts bin with args; stdout goes to stdout (nil discards).
func startChild(bin string, args []string, stdout *lineWriter) (*child, error) {
	cmd := exec.Command(bin, args...)
	// Should this process die without reaping (a panic on another
	// goroutine, SIGKILL), the kernel kills the child too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, stderr: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	cmd.Stderr = c.stderr
	if stdout != nil {
		cmd.Stdout = stdout
	}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	track(cmd, c.done)
	go func() {
		c.waitErr = cmd.Wait()
		untrack(cmd)
		close(c.done)
	}()
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop asks the child to drain with SIGTERM and kills it when it has not
// exited within grace. It returns the child's exit error, if any.
func (c *child) stop(grace time.Duration) error {
	if !c.exited() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(grace):
			_ = c.cmd.Process.Kill()
			<-c.done
			return fmt.Errorf("%s did not drain within %v", c.cmd.Path, grace)
		}
	}
	if c.waitErr != nil {
		return fmt.Errorf("%s: %w\n%s", c.cmd.Path, c.waitErr, c.stderr)
	}
	return nil
}

// kill stops a child whose drain is of no interest and waits for it.
// viewserverd installs its SIGTERM handler only after it reports ready,
// so a SIGTERM sent the moment it is ready can end it undrained; a
// server started only to time its setup is killed instead.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// wait blocks until the child exits or ctx ends (then it is killed).
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
	case <-ctx.Done():
		_ = c.cmd.Process.Kill()
		<-c.done
		return ctx.Err()
	}
	if c.waitErr != nil {
		return fmt.Errorf("%s: %w\n%s", c.cmd.Path, c.waitErr, c.stderr)
	}
	return nil
}

// peakRSSMB is the child's peak resident set from its rusage, valid once
// it has exited.
func (c *child) peakRSSMB() float64 {
	if c.cmd.ProcessState == nil {
		return 0
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// rssSampler samples a child's resident set every rssEvery until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

const rssEvery = 100 * time.Millisecond

func (c *child) sampleRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid)
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if data, err := os.ReadFile(path); err == nil {
				for _, line := range strings.Split(string(data), "\n") {
					if kb, ok := strings.CutPrefix(line, "VmRSS:"); ok {
						if v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64); err == nil {
							r.mb = append(r.mb, v/1024)
						}
					}
				}
			}
			select {
			case <-r.stop:
				return
			case <-c.done:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// samples stops the sampler and returns its samples in MB.
func (r *rssSampler) samples() []float64 {
	close(r.stop)
	<-r.done
	return r.mb
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// server is a running viewserverd.
type server struct {
	*child
	base string
}

// startServer starts viewserverd on a free port with the shipped defaults
// plus extra flags, and waits for /v1/healthz to answer 200. It returns
// the server and the time from process start to ready.
func startServer(ctx context.Context, bin string, extra []string, poll time.Duration) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-workload", "wk1", "-addr", addr, "-log-level", "warn"}, extra...)
	c, err := startChild(bin, args, nil)
	if err != nil {
		return nil, 0, err
	}
	s := &server{child: c, base: "http://" + addr}
	ready, err := s.waitReady(ctx, poll)
	if err != nil {
		_ = s.stop(5 * time.Second)
		return nil, 0, err
	}
	return s, ready, nil
}

// waitReady polls /v1/healthz every poll until it answers 200 and
// returns the time since the process started.
func (s *server) waitReady(ctx context.Context, poll time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/v1/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		if s.exited() {
			return 0, fmt.Errorf("viewserverd exited before ready: %v\n%s", s.waitErr, s.stderr)
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("viewserverd not ready: %w", ctx.Err())
		case <-time.After(poll):
		}
	}
}

// lineWriter timestamps each complete line a child writes to stdout.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines []stampedLine
}

type stampedLine struct {
	at   time.Time
	text string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete: keep for the next write
			return len(p), nil
		}
		w.lines = append(w.lines, stampedLine{at: now, text: line[:len(line)-1]})
	}
}

func (w *lineWriter) snapshot() []stampedLine {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]stampedLine(nil), w.lines...)
}

// buildPrograms builds viewserverd and viewgen from the tree at root into
// a fresh temporary directory under outDir.
func buildPrograms(ctx context.Context, root, outDir string) (string, error) {
	dir, err := os.MkdirTemp(outDir, "bin-")
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(os.PathSeparator), "./cmd/viewserverd", "./cmd/viewgen")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		_ = os.RemoveAll(dir)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return "", fmt.Errorf("build timed out: %s", out.String())
		}
		return "", fmt.Errorf("go build: %w\n%s", err, out.String())
	}
	return dir, nil
}
