package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"dip"
)

// warmBase is the stream position warm-up requests start at, far from
// the measured window's positions 0, 1, 2, ...
const warmBase = 1 << 40

// collected is what a run learns besides its metrics: the correctness
// gate and the sample counts behind the figures.
type collected struct {
	check   *checker
	samples map[string]int
	// stealPct is the share of the box's CPU time the hypervisor stole
	// during the window: a run with high steal measured a busy host.
	stealPct float64
	// p99MS is the latency tail, 0 when too few samples support it. It
	// is recorded in the provenance, not gated as a metric: on the
	// reference box its spread over ten runs reached 0.27, more than the
	// largest bound a gated metric may carry.
	p99MS float64
}

// measure warms the system up, runs the measured window with /metrics
// scraped at its two edges only (a scrape reads the Go heap statistics),
// checks every answer and derives the end-to-end and /metrics-based
// per-layer figures.
func measure(w *workload, st *stream, sys *system, o options, conns int) (map[string]float64, *collected, error) {
	client := newClient(conns)
	defer client.CloseIdleConnections()
	c := &collected{check: &checker{}, samples: map[string]int{}}
	dur := time.Duration(o.seconds) * time.Second
	pids := sys.pids()
	m := map[string]float64{}

	var before, after *metricsDoc
	var stealAll stealMeter
	var journalBytes int64
	var clientMeanMS float64
	if w.jobs {
		warm, err := jobsLoop(client, sys.base, st, warmBase, conns, warmup, pids)
		if err != nil {
			return nil, nil, err
		}
		checkJobs(c.check, st, warm, conns)
		size0, err := fileSize(sys.journal)
		if err != nil {
			return nil, nil, err
		}
		if before, err = scrape(client, sys.base); err != nil {
			return nil, nil, err
		}
		if err := stealAll.start(); err != nil {
			return nil, nil, err
		}
		run, err := jobsLoop(client, sys.base, st, 0, conns, dur, pids)
		if err != nil {
			return nil, nil, err
		}
		if c.stealPct, err = stealAll.stop(); err != nil {
			return nil, nil, err
		}
		if after, err = scrape(client, sys.base); err != nil {
			return nil, nil, err
		}
		size1, err := fileSize(sys.journal)
		if err != nil {
			return nil, nil, err
		}
		journalBytes = size1 - size0
		checkJobs(c.check, st, run, conns)

		settled := float64(len(run.settled))
		m["throughput_rps"] = settled / run.span.Seconds()
		m["server_cpu_ms_per_req"] = float64(run.cpu) / float64(time.Millisecond) / settled
		lat, mean := latencies(run.submits, dur, http.StatusAccepted)
		clientMeanMS = mean
		if err := tailFigures(m, c, lat, secondSteal(run.samples)); err != nil {
			return nil, nil, err
		}
		settleMS, attempts, err := envelopeFigures(run.settled)
		if err != nil {
			return nil, nil, err
		}
		m["jobs.settle_ms_p50"] = settleMS
		m["jobs.attempts_per_job"] = attempts
		m["jobs.journal_bytes_per_job"] = float64(journalBytes) / settled
		c.samples["jobs_settled"] = len(run.settled)
		c.samples["job_polls"] = int(run.polls)
	} else {
		url := sys.base + "/v1/run"
		warm, err := closedLoop(client, url, st, warmBase, conns, warmup, nil)
		if err != nil {
			return nil, nil, err
		}
		checkRuns(c.check, st, warm.replies, w.fleet, conns)
		if before, err = scrape(client, sys.base); err != nil {
			return nil, nil, err
		}
		if err := stealAll.start(); err != nil {
			return nil, nil, err
		}
		win, err := closedLoop(client, url, st, 0, conns, dur, pids)
		if err != nil {
			return nil, nil, err
		}
		if c.stealPct, err = stealAll.stop(); err != nil {
			return nil, nil, err
		}
		if after, err = scrape(client, sys.base); err != nil {
			return nil, nil, err
		}
		checkRuns(c.check, st, win.replies, w.fleet, conns)

		steal := secondSteal(win.cpu)
		rps, cpuPerReq := subWindows(win)
		quiet := quietest(steal)
		m["throughput_rps"] = median(pick(rps, quiet))
		m["server_cpu_ms_per_req"] = median(pick(cpuPerReq, quiet))
		c.samples["subwindows"] = len(rps)
		c.samples["subwindows_used"] = len(quiet)
		lat, mean := latencies(win.replies, dur, http.StatusOK)
		clientMeanMS = mean
		if err := tailFigures(m, c, lat, steal); err != nil {
			return nil, nil, err
		}
		for _, name := range []string{"jobs.settle_ms_p50", "jobs.attempts_per_job", "jobs.journal_bytes_per_job"} {
			m[name] = 0
		}
	}
	rss, err := peakRSS(pids)
	if err != nil {
		return nil, nil, err
	}
	m["server_rss_mb"] = float64(rss) / (1 << 20)
	layerCounters(m, before, after, clientMeanMS)
	return m, c, nil
}

// latencies splits the replies that completed within the window by the
// second they completed in and returns each second's latencies in ms — a
// failed request as +Inf, since it misses any latency limit — and the
// mean of the successful ones.
func latencies(replies []reply, window time.Duration, okStatus int) ([][]float64, float64) {
	out := make([][]float64, int(window/time.Second))
	sum, n := 0.0, 0
	for _, r := range replies {
		if r.end >= time.Duration(len(out))*time.Second {
			continue
		}
		ms := float64(r.end-r.start) / float64(time.Millisecond)
		if r.err != nil || r.status != okStatus {
			ms = math.Inf(1)
		} else {
			sum += ms
			n++
		}
		out[r.end/time.Second] = append(out[r.end/time.Second], ms)
	}
	return out, sum / float64(max(n, 1))
}

// tailFigures sets the latency median over the requests that completed
// in the quietest half of the window's seconds (see quietest), records
// the 99th percentile over them when at least minTail samples lie beyond
// it, and records the sample counts. steal holds the box's steal share in
// each second.
func tailFigures(m map[string]float64, c *collected, perSecond [][]float64, steal []float64) error {
	var lat []float64
	for _, i := range quietest(steal) {
		lat = append(lat, perSecond[i]...)
	}
	sort.Float64s(lat)
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return err
	}
	m["latency_p50_ms"] = p50
	if p99, err := percentile(lat, 0.99); err == nil {
		c.p99MS = p99
	}
	c.samples["latency"] = len(lat)
	c.samples["latency_p99_beyond"] = len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	return nil
}

// subWindows splits the window into whole seconds and returns each
// second's completed requests per second and server CPU ms per request.
func subWindows(w *window) (rps, cpuPerReq []float64) {
	secs := int(w.dur / time.Second)
	done := make([]int, secs)
	for _, r := range w.replies {
		if r.err != nil || r.status != http.StatusOK || r.end >= time.Duration(secs)*time.Second {
			continue
		}
		done[int(r.end/time.Second)]++
	}
	for i := 0; i < secs; i++ {
		rps = append(rps, float64(done[i]))
		cpu := w.cpu[i+1].cpu - w.cpu[i].cpu
		cpuPerReq = append(cpuPerReq, float64(cpu)/float64(time.Millisecond)/float64(max(done[i], 1)))
	}
	return rps, cpuPerReq
}

// secondSteal returns the box's steal share, in percent, in each second
// between consecutive samples.
func secondSteal(samples []cpuSample) []float64 {
	var out []float64
	for i := 0; i+1 < len(samples); i++ {
		a, b := samples[i], samples[i+1]
		out = append(out, 100*ratio(float64(b.steal-a.steal), float64(b.total-a.total)))
	}
	return out
}

// quietest returns the indices of the half of the window's seconds
// (rounded up) in which the hypervisor stole the least CPU, earliest
// first among equals. On the reference box, a VM sharing its host, steal
// comes in episodes of seconds to minutes that slow every request; the
// figures are taken over the quiet half, so an episode that covers less
// than half of a window does not move them.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

func pick(values []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = values[j]
	}
	return out
}

// envelopeFigures reads the settled dip-job/v1 envelopes: the median of
// settled − enqueued in ms, and the mean attempts per job.
func envelopeFigures(settled map[int][]byte) (float64, float64, error) {
	var waits []float64
	attempts := 0
	for _, data := range settled {
		env, err := dip.DecodeWireJob(bytes.NewReader(data))
		if err != nil {
			return 0, 0, err
		}
		waits = append(waits, float64(env.SettledUnixMS-env.EnqueuedUnixMS))
		attempts += env.Attempts
	}
	if len(waits) == 0 {
		return 0, 0, fmt.Errorf("no job settled")
	}
	return median(waits), float64(attempts) / float64(len(waits)), nil
}

// stealMeter measures the share of the box's CPU time the hypervisor
// stole between start and stop, in percent.
type stealMeter struct{ steal, total int64 }

func (s *stealMeter) start() (err error) {
	s.steal, s.total, err = hostCPU()
	return err
}

func (s *stealMeter) stop() (float64, error) {
	steal, total, err := hostCPU()
	return 100 * ratio(float64(steal-s.steal), float64(total-s.total)), err
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters derives the per-layer figures dipserve's own meters give,
// from the deltas of two /metrics scrapes around the window.
func layerCounters(m map[string]float64, before, after *metricsDoc, clientMeanMS float64) {
	tot0, n0 := before.serverLatency()
	tot1, n1 := after.serverLatency()
	serverMS := ratio(tot1-tot0, float64(n1-n0))
	m["dipserve.server_latency_ms_mean"] = serverMS
	m["dipserve.http_overhead_us"] = 1000 * (clientMeanMS - serverMS)
	refused := float64(after.Service.Rejected + after.Service.RateLimited - before.Service.Rejected - before.Service.RateLimited)
	admitted := float64(after.Service.Requests - before.Service.Requests)
	m["dipserve.rejected_per_kreq"] = 1000 * ratio(refused, admitted+refused)

	runs := float64(after.Engine.EngineRuns - before.Engine.EngineRuns)
	bits := float64(after.Engine.DeliveredBits - before.Engine.DeliveredBits)
	m["engine.wall_us_per_run"] = 1000 * ratio(float64(after.Engine.EngineWallMS-before.Engine.EngineWallMS), runs)
	m["engine.deliveries_per_run"] = ratio(float64(after.Engine.Deliveries-before.Engine.Deliveries), runs)
	m["engine.delivered_bits_per_run"] = ratio(bits, runs)
	hits := float64(after.StatePool.Hits - before.StatePool.Hits)
	misses := float64(after.StatePool.Misses - before.StatePool.Misses)
	m["engine.pool_hit_ratio"] = ratio(hits, hits+misses)

	for metric, cache := range map[string]string{
		"setup.graph_hit_ratio":    "graphs",
		"setup.artifact_hit_ratio": "artifacts",
		"setup.protocol_hit_ratio": "protocols",
	} {
		h0, m0 := before.cache(cache)
		h1, m1 := after.cache(cache)
		m[metric] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
	}

	f0, b0 := before.fleetTraffic()
	f1, b1 := after.fleetTraffic()
	m["peer.frames_per_run"] = ratio(float64(f1-f0), runs)
	m["peer.bytes_per_run"] = ratio(float64(b1-b0), runs)
	m["peer.bytes_per_metered_bit"] = ratio(float64(b1-b0), bits)
}
