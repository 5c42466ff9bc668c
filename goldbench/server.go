package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one goldrecd process under test, listening on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string    // http://127.0.0.1:port
	started time.Time // just before exec

	mu      sync.Mutex
	waitErr error
	done    chan struct{}
}

var listenRE = regexp.MustCompile(`msg=listening .*addr=(\S+)`)

// startServer execs goldrecd with the given flags plus a loopback
// ephemeral -addr, and returns once its listener is up (the "listening"
// log line carries the bound port). Every log line is copied to
// logPath.
func startServer(bin, logPath string, flags ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// A server outliving a killed benchmark would hold its port and
	// data dir; the kernel ends it with its parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting goldrecd: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.done)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		sentAddr := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !sentAddr {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					addrc <- m[1]
					sentAddr = true
				}
			}
		}
		io.Copy(io.Discard, stderr)
		err := cmd.Wait()
		s.mu.Lock()
		s.waitErr = err
		s.mu.Unlock()
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("goldrecd exited before listening (see %s): %v", logPath, s.exitErr())
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, fmt.Errorf("goldrecd did not listen within 30s (see %s)", logPath)
	}
}

func (s *server) exitErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waitErr
}

// waitReady polls /readyz until it answers 200 and returns the time
// since exec.
func (s *server) waitReady(ctx context.Context) (time.Duration, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.started), nil
			}
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("goldrecd not ready: %w", ctx.Err())
		case <-s.done:
			return 0, fmt.Errorf("goldrecd exited while recovering: %v", s.exitErr())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the process's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; 100 on
// every mainstream Linux architecture.
const clockTicks = 100

// stop sends SIGTERM and waits for a clean exit; a server that does not
// drain within 30s is killed and reported.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	select {
	case <-s.done:
		return s.exitErr()
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling goldrecd: %w", err)
	}
	select {
	case <-s.done:
		return s.exitErr()
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("goldrecd did not drain within 30s after SIGTERM")
	}
}

// kill ends the process without waiting for a drain and reaps it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// copyTree copies the regular files of dir src into dst, which must not
// exist yet: each workload iteration restarts on a fresh copy of its
// prepared data dir.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode().Perm())
	})
}

// treeBytes sums the sizes of the regular files under dir.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
