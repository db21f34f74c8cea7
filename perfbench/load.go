package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/network"
	"dip/internal/obs"
)

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// quietGC holds off perfbench's own garbage collection for a window
// until its heap reaches 256 MiB, so the load generator's GC takes CPU
// from the system under test a few times a window instead of hundreds.
// It returns the function restoring the previous settings.
func quietGC() func() {
	runtime.GC()
	percent := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(256 << 20)
	return func() {
		debug.SetGCPercent(percent)
		debug.SetMemoryLimit(limit)
	}
}

// reply is one answered (or failed) request of a window.
type reply struct {
	k      int
	status int
	body   []byte
	err    error
	// start and end are offsets from the window start.
	start, end time.Duration
}

// cpuSample is the system's CPU time, and the box's stolen and total CPU
// ticks, at an offset into the window.
type cpuSample struct {
	at           time.Duration
	cpu          time.Duration
	steal, total int64
}

// window is the outcome of one closed-loop measurement window.
type window struct {
	replies []reply
	dur     time.Duration
	cpu     []cpuSample
}

// closedLoop drives POST url with conns clients, each sending its next
// request only when the previous one is answered, for dur. Request k of
// the stream is sent with k = first, first+1, ...; requests still in
// flight at the end are awaited and returned too. With pids set, the
// system's CPU time is sampled once a second.
func closedLoop(client *http.Client, url string, st *stream, first, conns int, dur time.Duration, pids []int) (*window, error) {
	defer quietGC()()
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	end := start.Add(dur)
	per := make([][]reply, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				k := int(next.Add(1) - 1)
				body := st.body(k)
				t0 := time.Since(start)
				status, data, err := post(client, url, body)
				per[c] = append(per[c], reply{k: k, status: status, body: data, err: err, start: t0, end: time.Since(start)})
			}
		}(c)
	}
	w := &window{dur: dur}
	var samplerErr error
	if pids != nil {
		w.cpu, samplerErr = sampleCPU(pids, start, dur)
	}
	wg.Wait()
	for _, p := range per {
		w.replies = append(w.replies, p...)
	}
	sort.Slice(w.replies, func(i, j int) bool { return w.replies[i].k < w.replies[j].k })
	return w, samplerErr
}

// sampleCPU reads the processes' CPU time and the box's steal at every
// whole second of the window and at its end, blocking until the window is
// over.
func sampleCPU(pids []int, start time.Time, dur time.Duration) ([]cpuSample, error) {
	var out []cpuSample
	for at := time.Duration(0); ; at += time.Second {
		if at > dur {
			at = dur
		}
		time.Sleep(time.Until(start.Add(at)))
		c, err := cpuTime(pids)
		if err != nil {
			return nil, err
		}
		steal, total, err := hostCPU()
		if err != nil {
			return nil, err
		}
		out = append(out, cpuSample{at: at, cpu: c, steal: steal, total: total})
		if at == dur {
			return out, nil
		}
	}
}

// jobsOutstanding bounds each client's submitted-but-unsettled jobs: the
// closed loop polls its oldest job once this many are in flight, so the
// backlog stays bounded and the loop measures settling, not queueing.
const jobsOutstanding = 32

// pollPause spaces polls of a job that is not settled yet.
const pollPause = 250 * time.Microsecond

// jobsRun is the outcome of the jobs-journal loop.
type jobsRun struct {
	// submits holds every POST /v1/jobs answer; its latency is the
	// submit acknowledgement.
	submits []reply
	// settled holds the final GET /v1/jobs/{id} body of each accepted
	// job, by stream position.
	settled map[int][]byte
	// span runs from the first submit to the last job polled settled,
	// and cpu is the system's CPU time over it.
	span  time.Duration
	cpu   time.Duration
	polls int64
	// samples covers the submit window, as in window.cpu.
	samples []cpuSample
}

type pendingJob struct {
	k  int
	id string
}

// jobsLoop submits the stream to the job tier with conns closed-loop
// clients for dur, keeping at most jobsOutstanding unsettled jobs per
// client, then polls every job to its terminal state.
func jobsLoop(client *http.Client, base string, st *stream, first, conns int, dur time.Duration, pids []int) (*jobsRun, error) {
	defer quietGC()()
	var next atomic.Int64
	next.Store(int64(first))
	var polls atomic.Int64
	cpu0, err := cpuTime(pids)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	end := start.Add(dur)
	type clientOut struct {
		submits []reply
		settled map[int][]byte
		last    time.Duration
	}
	outs := make([]clientOut, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			out.settled = make(map[int][]byte)
			var queue []pendingJob
			// settleOldest polls the oldest job until it is terminal; it
			// gives up on the job after a bound, so a stuck job fails the
			// run's checks instead of hanging it.
			settleOldest := func() {
				job := queue[0]
				queue = queue[1:]
				giveUp := time.Now().Add(30 * time.Second)
				for time.Now().Before(giveUp) {
					polls.Add(1)
					status, data, err := get(client, base+"/v1/jobs/"+job.id)
					if err == nil && status == http.StatusOK && terminal(data) {
						out.settled[job.k] = data
						out.last = time.Since(start)
						return
					}
					time.Sleep(pollPause)
				}
			}
			for time.Now().Before(end) {
				if len(queue) >= jobsOutstanding {
					settleOldest()
					continue
				}
				k := int(next.Add(1) - 1)
				t0 := time.Since(start)
				status, data, err := post(client, base+"/v1/jobs", st.body(k))
				r := reply{k: k, status: status, body: data, err: err, start: t0, end: time.Since(start)}
				out.submits = append(out.submits, r)
				if err == nil && status == http.StatusAccepted {
					var env dip.WireJob
					if json.Unmarshal(data, &env) == nil && env.ID != "" {
						queue = append(queue, pendingJob{k: k, id: env.ID})
					}
				}
			}
			for len(queue) > 0 {
				settleOldest()
			}
		}(&outs[c])
	}
	samples, samplerErr := sampleCPU(pids, start, dur)
	wg.Wait()
	if samplerErr != nil {
		return nil, samplerErr
	}
	run := &jobsRun{settled: make(map[int][]byte), polls: polls.Load(), samples: samples}
	for _, o := range outs {
		run.submits = append(run.submits, o.submits...)
		for k, v := range o.settled {
			run.settled[k] = v
		}
		run.span = max(run.span, o.last)
	}
	cpu1, err := cpuTime(pids)
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	sort.Slice(run.submits, func(i, j int) bool { return run.submits[i].k < run.submits[j].k })
	return run, nil
}

// terminal reports whether a dip-job/v1 body is in a final state.
func terminal(data []byte) bool {
	var head struct {
		State string `json:"state"`
	}
	if json.Unmarshal(data, &head) != nil {
		return false
	}
	switch head.State {
	case dip.JobStateDone, dip.JobStateFailed, dip.JobStateParked:
		return true
	}
	return false
}

// metricsDoc is the part of dipserve's /metrics document the benchmark
// reads.
type metricsDoc struct {
	Service   obs.ServiceMetrics       `json:"service"`
	Engine    obs.Metrics              `json:"engine"`
	StatePool network.PoolStats        `json:"state_pool"`
	Caches    []obs.CacheMetricsRecord `json:"caches"`
	Fleet     *dip.FleetStats          `json:"fleet"`
}

func scrape(client *http.Client, base string) (*metricsDoc, error) {
	status, data, err := get(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	var m metricsDoc
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return &m, nil
}

// serverLatency is the summed server-side latency of synchronous runs, in
// milliseconds, and their count.
func (m *metricsDoc) serverLatency() (totalMS float64, n int64) {
	for _, p := range m.Service.Protocols {
		totalMS += p.LatencyMeanMS * float64(p.Requests)
		n += p.Requests
	}
	return totalMS, n
}

func (m *metricsDoc) cache(name string) (hits, misses int64) {
	for _, c := range m.Caches {
		if c.Name == name {
			return c.Hits, c.Misses
		}
	}
	return 0, 0
}

// fleetTraffic sums frames and bytes both ways over every peer.
func (m *metricsDoc) fleetTraffic() (frames, bytes int64) {
	if m.Fleet == nil {
		return 0, 0
	}
	for _, p := range m.Fleet.Peers {
		frames += p.FramesSent + p.FramesReceived
		bytes += p.BytesSent + p.BytesReceived
	}
	return frames, bytes
}
