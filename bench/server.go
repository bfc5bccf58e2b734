package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot returns the repository root: the directory holding cmd/dqm-serve,
// either the working directory or its parent (when run from bench/).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dqm-serve")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/dqm-serve in %s or its parent", wd)
}

// buildServe compiles cmd/dqm-serve into dir once, outside any timing.
func buildServe(root, dir string) (string, error) {
	bin := filepath.Join(dir, "dqm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dqm-serve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building dqm-serve: %w", err)
	}
	return bin, nil
}

// server is one running dqm-serve process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	dir     string
	spawned time.Time
	log     tail
	done    chan struct{}
}

// tail keeps the last few KiB of the server's log for failure reports.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[n-4<<10:]...)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// spawn starts dqm-serve on addr over the data dir.
func spawn(bin, addr, dir string, flags []string) (*server, error) {
	args := append([]string{"-addr", addr, "-data-dir", dir}, flags...)
	s := &server{cmd: exec.Command(bin, args...), addr: addr, dir: dir, done: make(chan struct{})}
	s.cmd.Stderr = &s.log
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dqm-serve: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.done)
	}()
	return s, nil
}

// kill stops the server with SIGKILL and waits until it has exited.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-s.done
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	RecoverySeconds float64 `json:"recovery_seconds"`
}

// waitReady polls /healthz until it answers 200 and returns the time from
// spawn. The server recovers its data dir before it listens, so the poll
// loop sees refused connections until boot is done.
func (s *server) waitReady(c *conn, timeout time.Duration, tr *tracer, parent uint64) (time.Duration, health, error) {
	deadline := s.spawned.Add(timeout)
	for {
		t0 := time.Now()
		r, err := c.get("/healthz")
		tr.add("serve.healthz", parent, t0, time.Now())
		if err == nil && r.status == 200 {
			var h health
			if err := json.Unmarshal(r.body, &h); err != nil {
				return 0, h, fmt.Errorf("healthz: %w", err)
			}
			return time.Since(s.spawned), h, nil
		}
		select {
		case <-s.done:
			return 0, health{}, fmt.Errorf("dqm-serve exited during boot: %s", s.log.String())
		default:
		}
		if time.Now().After(deadline) {
			return 0, health{}, fmt.Errorf("dqm-serve not ready after %s: %s", timeout, s.log.String())
		}
		// Polled any faster, the refused connects take CPU from the server
		// replaying its data dir on the same cores.
		time.Sleep(time.Millisecond)
	}
}

// procCPU returns the process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clockTicks = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns the peak resident set (VmHWM) of a process in MB.
func procHWM(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a data dir tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, in); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}
