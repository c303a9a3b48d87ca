package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything one invocation leaves on disk or running:
// the built egserve binary, a scratch directory for graph files, WALs
// and checkpoints, and the child processes. All of it lives under the
// repository so a run reads and writes nothing outside its checkout.
type harness struct {
	root    string // repository root (holds go.mod of module repro)
	outDir  string // bench/egmark/out: traces, child stderr, result sets
	tmpDir  string // outDir/tmp-<pid>, removed on exit
	egserve string

	mu       sync.Mutex
	children map[*child]struct{}
}

func newHarness(root string) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !bytes.HasPrefix(mod, []byte("module repro\n")) {
		return nil, fmt.Errorf("%s is not the repository root (no go.mod of module repro); pass -root", root)
	}
	h := &harness{root: root, children: map[*child]struct{}{}}
	h.outDir = filepath.Join(root, "bench", "egmark", "out")
	h.tmpDir = filepath.Join(h.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(h.tmpDir, 0o755); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()
	return h, nil
}

// cleanup kills every child still running and removes the scratch
// directory. Safe to call more than once.
func (h *harness) cleanup() {
	h.mu.Lock()
	cs := make([]*child, 0, len(h.children))
	for c := range h.children {
		cs = append(cs, c)
	}
	h.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
	os.RemoveAll(h.tmpDir)
}

// buildServer compiles cmd/egserve once per invocation. The binary
// goes under .bench_build so that repeated invocations in one checkout
// pay only the toolchain's up-to-date check.
func (h *harness) buildServer() error {
	if h.egserve != "" {
		return nil
	}
	bin := filepath.Join(h.root, ".bench_build", "bin", "egserve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/egserve")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building cmd/egserve: %v\n%s", err, out)
	}
	h.egserve = bin
	return nil
}

func (h *harness) env() envInfo {
	e := envInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = h.root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// freeAddr picks a free loopback port by binding and closing: egserve
// prints the flag value rather than the bound address, so ":0" cannot
// be resolved from outside.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one running egserve.
type child struct {
	h        *harness
	cmd      *exec.Cmd
	log      *os.File
	httpAddr string
	wireAddr string
	readyIn  time.Duration // exec → first /readyz 200
	done     chan struct{} // closed when the process has been reaped
	once     sync.Once
}

func (c *child) url() string { return "http://" + c.httpAddr }
func (c *child) pid() int    { return c.cmd.Process.Pid }

// startServer launches egserve on two free ports with args appended,
// keeps its output in out/egserve-<name>.log and returns once /readyz
// answers 200. A port picked by bind-and-close can be taken again before
// egserve binds it (the EGWP listener opens last, and the readiness
// probes themselves use ephemeral ports), so a child that exits during
// start-up is retried on fresh ports.
func (h *harness) startServer(name string, args ...string) (*child, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var c *child
		if c, err = h.startOnce(name, args); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func (h *harness) startOnce(name string, args []string) (*child, error) {
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(h.outDir, "egserve-"+name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c := &child{h: h, log: logf, httpAddr: httpAddr, wireAddr: wireAddr, done: make(chan struct{})}
	c.cmd = exec.Command(h.egserve, append([]string{"-addr", httpAddr, "-wire-addr", wireAddr}, args...)...)
	c.cmd.Stdout, c.cmd.Stderr = logf, logf
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	h.mu.Lock()
	h.children[c] = struct{}{}
	h.mu.Unlock()
	go func() {
		c.cmd.Wait() //nolint:errcheck // a killed child's exit status carries no information
		close(c.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	for ready := false; !ready; {
		select {
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("egserve %s exited during start-up; see %s", name, logf.Name())
		default:
		}
		if resp, err := probe.Get(c.url() + "/readyz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			if time.Since(start) > 60*time.Second {
				c.kill()
				return nil, fmt.Errorf("egserve %s not ready after 60s; see %s", name, logf.Name())
			}
			time.Sleep(time.Millisecond)
		}
	}
	c.readyIn = time.Since(start)
	// The EGWP listener opens just after /readyz turns 200; wait for it,
	// and notice a child that died binding it.
	for {
		conn, err := net.DialTimeout("tcp", wireAddr, time.Second)
		if err == nil {
			conn.Close()
			return c, nil
		}
		select {
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("egserve %s exited opening its EGWP listener; see %s", name, logf.Name())
		default:
		}
		if time.Since(start) > 60*time.Second {
			c.kill()
			return nil, fmt.Errorf("egserve %s: EGWP listener not up after 60s; see %s", name, logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// kill sends SIGKILL and waits until the process has been reaped.
func (c *child) kill() {
	c.once.Do(func() {
		c.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		<-c.done
		c.log.Close()
		c.h.mu.Lock()
		delete(c.h.children, c)
		c.h.mu.Unlock()
	})
}

var selfPID = os.Getpid()

// clkTck is the kernel's USER_HZ; Linux has fixed it at 100 on every
// architecture Go supports.
const clkTck = 100

// parseStatCPU extracts utime+stime (clock ticks) from the contents of
// /proc/<pid>/stat. The command name may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (ticks int64, err error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no ')' in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return ut + st, nil
}

// parseVmHWM extracts the peak resident set size (kB) from the
// contents of /proc/<pid>/status.
func parseVmHWM(status string) (kb int64, err error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseInt(f[0], 10, 64)
			}
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", line)
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// cpuMicros returns the CPU time (user+system, microseconds) process
// pid has consumed so far.
func cpuMicros(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	t, err := parseStatCPU(string(b))
	return float64(t) * 1e6 / clkTck, err
}

// cpuDuring returns the CPU time (microseconds) the child consumed
// while fn ran.
func (c *child) cpuDuring(fn func()) (float64, error) {
	before, err := cpuMicros(c.pid())
	if err != nil {
		return 0, err
	}
	fn()
	after, err := cpuMicros(c.pid())
	return after - before, err
}

func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	return float64(kb) / 1024, err
}

// selfCPUMicros is cpuMicros for this process at microsecond
// resolution (getrusage instead of clock ticks).
func selfCPUMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

// getBody fetches one URL with a plain client: for scrapes and model
// checks, never for timed operations.
func getBody(ctx context.Context, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return buf.Bytes(), resp.StatusCode, nil
}
