package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the system under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
	err    error
}

func startProc(name, bin string, args []string, dir string, gomaxprocs int) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop asks the process to drain (SIGTERM) and kills it if it has not
// exited within bound. It returns once the process has exited.
func (p *proc) stop(bound time.Duration) {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(bound):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// system is one booted instance of the serving stack: dipserve, plus the
// dippeer fleet behind it for fleet workloads.
type system struct {
	// procs lists dipserve first, then the peers.
	procs     []*proc
	base      string
	peerAddrs []string
	journal   string
	// dir holds the processes' logs, address files and journal.
	dir string
}

// boot launches the workload's processes and waits until dipserve's
// /readyz answers 200, which under -peers includes the fleet dial and
// under -journal the journal open. The returned duration is the set-up
// time: from the first launch to the first 200.
func boot(w *workload, bins, dir string, gomaxprocs int) (*system, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &system{dir: dir}
	start := time.Now()
	var peerFiles []string
	if w.fleet {
		for i := 0; i < fleetPeers; i++ {
			f := filepath.Join(dir, fmt.Sprintf("peer%d.addr", i))
			p, err := startProc(fmt.Sprintf("dippeer%d", i), filepath.Join(bins, "dippeer"),
				[]string{"-addr", "127.0.0.1:0", "-addr-file", f}, dir, gomaxprocs)
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			s.procs = append(s.procs, p)
			peerFiles = append(peerFiles, f)
		}
		for i, f := range peerFiles {
			addr, err := waitAddr(f, s.procs[i])
			if err != nil {
				s.stop()
				return nil, 0, err
			}
			s.peerAddrs = append(s.peerAddrs, addr)
		}
	}
	addrFile := filepath.Join(dir, "dipserve.addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}
	if w.fleet {
		args = append(args, "-peers", strings.Join(s.peerAddrs, ","))
	}
	if w.jobs {
		s.journal = filepath.Join(dir, "jobs.journal")
		args = append(args, "-journal", s.journal)
	}
	srv, err := startProc("dipserve", filepath.Join(bins, "dipserve"), args, dir, gomaxprocs)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	s.procs = append([]*proc{srv}, s.procs...)
	addr, err := waitAddr(addrFile, srv)
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	s.base = "http://" + addr
	if err := waitReady(s.base, srv); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// pollEvery is the readiness poll interval; it bounds the resolution of
// setup_s.
const pollEvery = 200 * time.Microsecond

const bootBound = 30 * time.Second

// waitAddr waits for a process to write its bound address (one line).
func waitAddr(path string, p *proc) (string, error) {
	deadline := time.Now().Add(bootBound)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && strings.HasSuffix(string(data), "\n") {
			return strings.TrimSpace(string(data)), nil
		}
		if !p.alive() {
			return "", fmt.Errorf("%s exited during boot: %v", p.name, p.err)
		}
		time.Sleep(pollEvery)
	}
	return "", fmt.Errorf("%s wrote no address within %v", p.name, bootBound)
}

func waitReady(base string, p *proc) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(bootBound)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !p.alive() {
			return fmt.Errorf("%s exited during boot: %v", p.name, p.err)
		}
		time.Sleep(pollEvery)
	}
	return fmt.Errorf("%s not ready within %v", p.name, bootBound)
}

// stop drains dipserve first (it owns the fleet connections), then the
// peers, and returns once every process has exited.
func (s *system) stop() {
	for _, p := range s.procs {
		p.stop(10 * time.Second)
	}
}

// removeJournal deletes the job journal of a stopped system.
func (s *system) removeJournal() {
	if s.journal != "" {
		os.Remove(s.journal)
	}
}

func (s *system) pids() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

func (s *system) alive() error {
	for _, p := range s.procs {
		if !p.alive() {
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		}
	}
	return nil
}

// clockTick is the unit of utime/stime in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 on every architecture this runs on.
const clockTick = 10 * time.Millisecond

// cpuTime returns the user+system CPU time the processes have used.
func cpuTime(pids []int) (time.Duration, error) {
	var ticks int64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields after its
		// closing parenthesis are fixed: utime and stime are 14 and 15.
		i := strings.LastIndexByte(string(data), ')')
		if i < 0 {
			return 0, errors.New("malformed /proc stat")
		}
		f := strings.Fields(string(data[i+1:]))
		if len(f) < 13 {
			return 0, errors.New("short /proc stat")
		}
		for _, s := range f[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += v
		}
	}
	return time.Duration(ticks) * clockTick, nil
}

// peakRSS returns the summed peak resident set (VmHWM) of the processes,
// in bytes.
func peakRSS(pids []int) (int64, error) {
	var total int64
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, err
				}
				total += kb << 10
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", pid)
		}
	}
	return total, nil
}

// hostCPU returns the box's stolen and total CPU ticks from /proc/stat.
func hostCPU() (steal, total int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
