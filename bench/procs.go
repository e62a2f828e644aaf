package main

import (
	"bufio"
	"bytes"
	"errors"
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

// harness owns everything one benchmark process leaves on the machine:
// the built spamserver binary, the run's temp directory, and the child
// servers. cleanup undoes all of it and is safe to call from the signal
// handler while the main goroutine is still working.
type harness struct {
	root string // repository root (holds go.mod)
	out  string // <root>/bench/out: binary, trace.json, result files
	tmp  string // <out>/run-<pid>: inputs, WAL, server logs; removed at exit
	bin  string // built spamserver

	mu       sync.Mutex
	children []*server
	closed   bool
	nextID   int
}

// findRoot walks up from the working directory to the module root.
// The benchmark runs from the root of a checkout (go run ./bench) or,
// under go test, from the bench directory itself.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "spamserver")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no spammass module root (go.mod with cmd/spamserver) above the working directory")
		}
		dir = parent
	}
}

// newHarness prepares bench/out and builds cmd/spamserver from the
// checkout's own source, so the binary under test is always the commit
// being measured. go build is a no-op when the binary is current.
func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, out: filepath.Join(root, "bench", "out")}
	h.tmp = filepath.Join(h.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(h.tmp, 0o755); err != nil {
		return nil, err
	}
	removeStaleRuns(h.out)
	h.bin = filepath.Join(h.out, "bin", "spamserver")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/spamserver")
	cmd.Dir = root
	if outb, err := cmd.CombinedOutput(); err != nil {
		h.cleanup()
		return nil, fmt.Errorf("building cmd/spamserver: %v\n%s", err, outb)
	}
	logf("built %s in %.2fs", h.bin, time.Since(start).Seconds())
	return h, nil
}

// removeStaleRuns deletes the temp directories of earlier harness
// processes that died before their cleanup ran (their servers are gone
// already: see childAttr). A directory whose process is still alive is
// another benchmark running side by side and is left alone.
func removeStaleRuns(out string) {
	dirs, _ := filepath.Glob(filepath.Join(out, "run-*"))
	for _, d := range dirs {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(d), "run-"))
		if err != nil || pid == os.Getpid() {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(d)
		}
	}
}

// dir creates and returns a fresh subdirectory of the run's temp dir.
func (h *harness) dir(name string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return "", errors.New("harness is shutting down")
	}
	h.nextID++
	d := filepath.Join(h.tmp, fmt.Sprintf("%s-%d", name, h.nextID))
	return d, os.MkdirAll(d, 0o755)
}

// cleanup kills every child still running, waits for each, and removes
// the temp directory. It runs on every exit path: normal return, a
// failed check, and SIGINT/SIGTERM.
func (h *harness) cleanup() {
	h.mu.Lock()
	h.closed = true
	children := h.children
	h.children = nil
	h.mu.Unlock()
	for _, s := range children {
		s.kill()
	}
	os.RemoveAll(h.tmp)
}

// server is one spamserver child process.
type server struct {
	name     string
	cmd      *exec.Cmd
	addrFile string
	addr     string // host:port it bound, read from addrFile
	log      string // its stderr
	// exited is closed once Wait returned; waitErr is valid after that.
	exited  chan struct{}
	waitErr error
	// bootDur is exec → first /readyz 200.
	bootDur time.Duration
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine; Wait below settles it
	<-s.exited
}

// peakRSSKB reads the process's resident-set high-water mark.
func (s *server) peakRSSKB() int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseInt(f[1], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// bootTimeout bounds one server's exec → ready; the largest graph the
// workloads use boots in a few seconds.
const bootTimeout = 120 * time.Second

// launch starts a spamserver on an ephemeral port without waiting for
// it; ready does the waiting, so several servers can boot side by side.
func (h *harness) launch(name string, args ...string) (*server, time.Time, error) {
	dir, err := h.dir(name)
	if err != nil {
		return nil, time.Time{}, err
	}
	s := &server{name: name, addrFile: filepath.Join(dir, "addr"), log: filepath.Join(dir, "stderr.log"), exited: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-addr-file", s.addrFile}, args...)
	logFile, err := os.Create(s.log)
	if err != nil {
		return nil, time.Time{}, err
	}
	s.cmd = exec.Command(h.bin, args...)
	s.cmd.Stderr = logFile
	s.cmd.SysProcAttr = childAttr()
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		logFile.Close()
		return nil, time.Time{}, errors.New("harness is shutting down")
	}
	start := time.Now()
	err = s.cmd.Start()
	if err == nil {
		h.children = append(h.children, s)
	}
	h.mu.Unlock()
	logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		s.waitErr = s.cmd.Wait()
		close(s.exited)
	}()
	return s, start, nil
}

// ready waits until the server has written its address file and
// answers /readyz with 200, and records exec → ready in bootDur.
func (s *server) ready(start time.Time) error {
	deadline := start.Add(bootTimeout)
	for s.addr == "" {
		if data, err := os.ReadFile(s.addrFile); err == nil && bytes.HasSuffix(data, []byte("\n")) {
			s.addr = strings.TrimSpace(string(data))
			break
		}
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited before binding (%v): %s", s.name, s.waitErr, s.tailLog())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not bind within %s: %s", s.name, bootTimeout, s.tailLog())
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := http.Get(s.url("/readyz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootDur = time.Since(start)
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("%s exited before ready (%v): %s", s.name, s.waitErr, s.tailLog())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %s: %s", s.name, bootTimeout, s.tailLog())
		}
		time.Sleep(time.Millisecond)
	}
}

// tailLog returns the end of the server's stderr for error messages.
func (s *server) tailLog() string {
	data, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return strings.TrimSpace(string(data))
}

// adminClient carries the harness's out-of-band requests (readiness,
// refresh, metric scrapes, correctness samples). They run outside the
// measured phases and do not count against the two load connections.
var adminClient = &http.Client{Timeout: 120 * time.Second}

// adminDo performs one out-of-band request and returns status and body.
func adminDo(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := adminClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the server's /metrics into name → value. Only the plain
// "name value" sample lines are kept — counters, gauges, and the _sum
// and _count of histograms; bucket lines carry labels and are skipped.
func (s *server) scrape() (map[string]float64, error) {
	status, body, err := adminDo(http.MethodGet, s.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics answered %d", s.name, status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// counterDelta is end[name] − start[name], summed over servers whose
// scrapes are paired by index.
func counterDelta(start, end []map[string]float64, name string) float64 {
	var d float64
	for i := range end {
		d += end[i][name]
		if i < len(start) {
			d -= start[i][name]
		}
	}
	return d
}
