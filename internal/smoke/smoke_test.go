//go:build smoke

package smoke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"dip/internal/experiments"
	"dip/internal/jobs"
	"dip/internal/obs"
)

// binDir holds the binaries TestMain builds once for every drill.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dip-smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"dip/cmd/dipserve", "dip/cmd/dipload", "dip/cmd/dippeer", "dip/cmd/dipsim")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	code := 1
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building the binaries:", err)
	} else {
		binDir = dir
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is a server process (dipserve or dippeer) booted by boot.
type proc struct {
	name string
	addr string // host:port read from its address file
	log  string // path of its combined stdout and stderr
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait has returned
}

// boot starts bin on 127.0.0.1:0 with args and waits for the address file
// it writes once listening. The process is killed when the test ends, and
// its log is printed if the test failed.
func boot(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	p := &proc{name: name, log: filepath.Join(dir, "log"), done: make(chan struct{})}
	logf, err := os.Create(p.log)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	p.cmd = exec.Command(filepath.Join(binDir, bin),
		append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.kill()
		if t.Failed() {
			t.Logf("%s log:\n%s", p.name, p.logText(t))
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.addr = strings.TrimSpace(string(b))
			return p
		}
		select {
		case <-p.done:
			t.Fatalf("%s exited before binding: %v", name, p.cmd.ProcessState)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never bound", name)
		}
	}
}

// bootPeers boots n dippeers and returns them with their addresses.
func bootPeers(t *testing.T, n int) (peers []*proc, addrs []string) {
	t.Helper()
	for i := 1; i <= n; i++ {
		p := boot(t, fmt.Sprintf("peer %d", i), "dippeer")
		peers = append(peers, p)
		addrs = append(addrs, p.addr)
	}
	return peers, addrs
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) logText(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(p.log)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// exitCode waits for p to exit and returns its exit code (-1 when a signal
// killed it).
func (p *proc) exitCode(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
	case <-time.After(time.Minute):
		t.Fatalf("%s did not exit", p.name)
	}
	return p.cmd.ProcessState.ExitCode()
}

// drain sends SIGTERM and requires exit 0 and the drain marker in the log.
func (p *proc) drain(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	if code := p.exitCode(t); code != 0 {
		t.Fatalf("%s exited %d after drain", p.name, code)
	}
	if !strings.Contains(p.logText(t), "drained") {
		t.Fatalf("no drain marker in the %s log", p.name)
	}
}

// kill SIGKILLs p, if it still runs, and waits for it to exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// runTool runs one of the built binaries to completion.
func runTool(bin string, args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// tool runs a built binary and fails the test unless it exits 0.
func tool(t *testing.T, bin string, args ...string) {
	t.Helper()
	if stdout, stderr, err := runTool(bin, args...); err != nil {
		t.Fatalf("%s %s: %v\n%s%s", bin, strings.Join(args, " "), err, stdout, stderr)
	}
}

// readLoad decodes and validates a dip-load/v1 file.
func readLoad(t *testing.T, path string) *experiments.LoadResultsFile {
	t.Helper()
	f, err := experiments.ReadLoadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// cleanLoad reads a dip-load/v1 file and requires zero request errors.
func cleanLoad(t *testing.T, path string) {
	t.Helper()
	if f := readLoad(t, path); f.Errors != 0 {
		t.Fatalf("%s: %d request errors", filepath.Base(path), f.Errors)
	}
}

// getJSON GETs url, requires a 200 answer and decodes its body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// metrics is the part of dipserve's /metrics answer the drills gate on.
type metrics struct {
	Service obs.ServiceMetrics   `json:"service"`
	Jobs    jobs.MetricsSnapshot `json:"jobs"`
}

func metricsOf(t *testing.T, srv *proc) metrics {
	t.Helper()
	var m metrics
	getJSON(t, srv.url()+"/metrics", &m)
	return m
}

// readFile reads a file a tool wrote.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServe(t *testing.T) {
	dir := t.TempDir()
	srv := boot(t, "dipserve", "dipserve", "-workers", "4", "-queue", "16")
	tool(t, "dipload", "-url", srv.url(), "-protocol", "sym-dmam,sym-dam", "-n", "32", "-c", "4",
		"-requests", "300", "-seed", "1", "-json", dir+"/load.json")
	readLoad(t, dir+"/load.json")
	srv.drain(t)
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	srv := boot(t, "dipserve", "dipserve", "-workers", "4", "-queue", "16")
	load := []string{"-url", srv.url(), "-protocol", "sym-dmam", "-n", "32", "-c", "4", "-requests", "200", "-seed", "1"}
	tool(t, "dipload", append(load, "-json", dir+"/plain.json")...)
	tool(t, "dipload", append(load, "-batch", "25", "-json", dir+"/batch.json")...)
	cleanLoad(t, dir+"/plain.json")
	cleanLoad(t, dir+"/batch.json")

	m := metricsOf(t, srv)
	if m.Service.InFlight != 0 || m.Service.QueueDepth != 0 {
		t.Fatalf("service gauges after load: in_flight %d, queue_depth %d", m.Service.InFlight, m.Service.QueueDepth)
	}
	if m.Jobs.InFlight != 0 || m.Jobs.Depth != 0 {
		t.Fatalf("job gauges after load: in_flight %d, queue_depth %d", m.Jobs.InFlight, m.Jobs.Depth)
	}
	srv.drain(t)
}

func TestChaos(t *testing.T) {
	srv := boot(t, "dipserve", "dipserve", "-workers", "4", "-queue", "16", "-rate-limit", "500")
	tool(t, "dipload", "-url", srv.url(), "-chaos", "120", "-c", "6", "-seed", "1")
	tool(t, "dipload", "-url", srv.url(), "-protocol", "sym-dmam", "-n", "16", "-c", "2", "-requests", "20", "-seed", "2")
	srv.drain(t)
	if strings.Contains(strings.ToLower(srv.logText(t)), "panic") {
		t.Fatal("panic in the dipserve log")
	}
}

func TestJobsCrashReplay(t *testing.T) {
	dir := t.TempDir()
	const backlog = 40
	journal := []string{"-workers", "2", "-journal", dir + "/jobs.journal"}
	ids := []string{"-jobs-file", dir + "/ids", "-seed", "1"}

	srv := boot(t, "dipserve (ingest)", "dipserve", append(journal, "-job-workers", "0")...)
	tool(t, "dipload", append([]string{"-url", srv.url(), "-jobs", "submit", "-protocol", "sym-dmam,sym-dam",
		"-n", "24", "-c", "4", "-requests", fmt.Sprint(backlog)}, ids...)...)
	srv.kill()

	srv = boot(t, "dipserve (replay)", "dipserve", append(journal, "-job-workers", "4")...)
	tool(t, "dipload", append([]string{"-url", srv.url(), "-jobs", "poll"}, ids...)...)
	if marker := fmt.Sprintf("journal replayed %d pending,", backlog); !strings.Contains(srv.logText(t), marker) {
		t.Fatalf("no %q in the log", marker)
	}
	m := metricsOf(t, srv).Jobs
	if m.Completed != backlog || m.Parked != 0 || m.AckErrors != 0 {
		t.Fatalf("jobs completed %d, parked %d, ack_errors %d; want %d, 0, 0", m.Completed, m.Parked, m.AckErrors, backlog)
	}
	srv.drain(t)
}

func TestPeerFleet(t *testing.T) {
	dir := t.TempDir()
	peers, addrs := bootPeers(t, 4)
	sim := []string{"-protocol", "sym-dmam", "-graph", "doubled", "-n", "16", "-seed", "7"}
	tool(t, "dipsim", append(sim, "-json", dir+"/inproc.json")...)
	inproc := readFile(t, dir+"/inproc.json")
	fleetRun := func(name string) {
		t.Helper()
		tool(t, "dipsim", append(sim, "-peers", strings.Join(addrs, ","), "-json", dir+"/"+name)...)
		if !bytes.Equal(readFile(t, dir+"/"+name), inproc) {
			t.Fatalf("%s is not byte-identical to the in-process report", name)
		}
	}
	fleetRun("fleet.json")

	failing := boot(t, "failing peer", "dippeer", "-fail-session", "1")
	_, stderr, err := runTool("dipsim", append(sim, "-peers", strings.Join(append(addrs, failing.addr), ","))...)
	if err == nil {
		t.Fatal("a run with a dying peer succeeded")
	}
	if !strings.Contains(stderr, "transport phase") {
		t.Fatalf("no structured transport error:\n%s", stderr)
	}
	if code := failing.exitCode(t); code != 2 {
		t.Fatalf("failing peer exited %d, want 2", code)
	}

	fleetRun("fleet2.json")
	for _, p := range peers {
		p.drain(t)
	}
}

func TestFleetServing(t *testing.T) {
	dir := t.TempDir()
	peers, addrs := bootPeers(t, 3)
	srv := boot(t, "dipserve", "dipserve", "-workers", "4", "-queue", "16", "-peers", strings.Join(addrs, ","),
		"-journal", dir+"/jobs.journal", "-job-workers", "2")
	load := func(args ...string) []string {
		return append([]string{"-url", srv.url(), "-n", "24", "-c", "4"}, args...)
	}
	tool(t, "dipload", load("-protocol", "sym-dmam,sym-dam", "-requests", "120", "-seed", "1", "-json", dir+"/plain.json")...)
	tool(t, "dipload", load("-protocol", "sym-dmam", "-requests", "100", "-batch", "20", "-seed", "2", "-json", dir+"/batch.json")...)
	tool(t, "dipload", load("-jobs", "submit", "-jobs-file", dir+"/ids", "-protocol", "sym-dmam", "-requests", "30", "-seed", "3")...)
	tool(t, "dipload", "-url", srv.url(), "-jobs", "poll", "-jobs-file", dir+"/ids", "-seed", "3")
	cleanLoad(t, dir+"/plain.json")
	cleanLoad(t, dir+"/batch.json")

	// Kill peer 1 once the kill-window load is being served.
	before := metricsOf(t, srv).Service.Requests
	loadDone := make(chan error, 1)
	go func() {
		stdout, stderr, err := runTool("dipload", load("-protocol", "sym-dmam", "-requests", "1500", "-seed", "4", "-json", dir+"/kill.json")...)
		if err != nil {
			err = fmt.Errorf("%v\n%s%s", err, stdout, stderr)
		}
		loadDone <- err
	}()
	for metricsOf(t, srv).Service.Requests == before {
		select {
		case err := <-loadDone:
			t.Fatalf("the kill-window load ended before it was served: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	peers[0].kill()
	if err := <-loadDone; err != nil {
		t.Fatalf("load across the peer kill: %v", err)
	}
	if f := readLoad(t, dir+"/kill.json"); f.Errors == 0 {
		t.Fatal("no structured 502s observed across the peer kill")
	}

	var ready struct {
		Fleet *struct {
			Unreachable []string `json:"unreachable"`
		} `json:"fleet"`
	}
	getJSON(t, srv.url()+"/readyz", &ready)
	if ready.Fleet == nil || !slices.Contains(ready.Fleet.Unreachable, peers[0].addr) {
		t.Fatalf("/readyz does not name the dead peer %s unreachable: %+v", peers[0].addr, ready.Fleet)
	}

	tool(t, "dipload", load("-protocol", "sym-dmam", "-requests", "60", "-seed", "5", "-json", dir+"/recover.json")...)
	cleanLoad(t, dir+"/recover.json")
	srv.drain(t)
	for _, p := range peers[1:] {
		p.drain(t)
	}
}
