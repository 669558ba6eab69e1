package main

import (
	"bufio"
	"bytes"
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

// server is one running xkserver process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
	once sync.Once
}

// serverArgs are the workload's xkserver flags, minus the address.
func serverArgs(w workloadDef, in *inputs) []string {
	if w.store {
		return []string{"-store", in.storePath, "-mmap", "on"}
	}
	args := []string{"-dir", in.dir}
	if w.writes {
		args = append(args, "-allow-writes", "-compact-interval", "1s")
	}
	return args
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs xkserver and returns once /healthz answers 200, with
// the time from exec to that first healthy answer.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(append([]string{}, args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() { s.done <- cmd.Wait() }()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			logf.Close()
			return nil, 0, fmt.Errorf("xkserver exited during start-up: %v (log %s)", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("xkserver not healthy after 60s (log %s)", logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 15s)
// and closes its log. Later calls do nothing.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// cpuSeconds is the server process's user+sys CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return (ut + st) / 100, nil
}

// rssPeakMB is the server's VmHWM (peak resident set) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrapeMetrics reads /metrics into a map from series (name plus labels)
// to value.
func (s *server) scrapeMetrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
