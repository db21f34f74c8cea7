package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"dip"
)

// checker is the correctness gate: every failed, refused or wrong answer
// is counted, and the first few are kept for the log.
type checker struct {
	mu       sync.Mutex
	attempts int
	failures int
	examples []string
}

// record counts one checked request, failed unless ok.
func (c *checker) record(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempts++
	if !ok {
		c.failLocked(format, args...)
	}
}

// fail counts a check that is not one request (the traced replay's
// byte-identity and reconciliation checks) against the run.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(format, args...)
}

func (c *checker) failLocked(format string, args ...any) {
	c.failures++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, fmt.Sprintf(format, args...))
	}
}

// checkReport verifies one dip-report/v1 answer to request k: it decodes
// and validates, it is request k's run (protocol, size, seed), and it
// accepts — the protocols are perfectly complete and every instance is
// symmetric.
func checkReport(st *stream, k int, body []byte) error {
	rep, err := dip.DecodeWireReport(bytes.NewReader(body))
	if err != nil {
		return err
	}
	req, err := st.request(k)
	if err != nil {
		return err
	}
	if rep.Protocol != req.Protocol || rep.Nodes != req.N || rep.Seed != req.Options.Seed {
		return fmt.Errorf("report is %s n=%d seed=%d, request was %s n=%d seed=%d",
			rep.Protocol, rep.Nodes, rep.Seed, req.Protocol, req.N, req.Options.Seed)
	}
	if !rep.Accepted {
		return fmt.Errorf("%s rejected a symmetric instance (%d rejecting nodes)", rep.Protocol, len(rep.RejectingNodes))
	}
	return nil
}

// request decodes body(k) back into the request the program received.
func (s *stream) request(k int) (dip.Request, error) {
	var req dip.Request
	dec := json.NewDecoder(bytes.NewReader(s.body(k)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// reference is the in-process answer to request k: dip.Run's report,
// encoded exactly as dipserve encodes it.
func reference(st *stream, k int) ([]byte, error) {
	req, err := st.request(k)
	if err != nil {
		return nil, err
	}
	rep, err := dip.RunContext(context.Background(), req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = dip.WireReportFrom(rep, req.Options.Seed).Encode(&buf)
	return buf.Bytes(), err
}

// checkRuns gates a /v1/run window. With sameAsInProcess, every answer
// must also be byte-identical to the in-process report for its request
// (the seed → bytes invariant the fleet must keep).
func checkRuns(c *checker, st *stream, replies []reply, sameAsInProcess bool, workers int) {
	parallel(len(replies), workers, func(i int) {
		r := replies[i]
		switch {
		case r.err != nil:
			c.record(false, "request %d: %v", r.k, r.err)
		case r.status != http.StatusOK:
			c.record(false, "request %d: status %d: %.200s", r.k, r.status, r.body)
		default:
			err := checkReport(st, r.k, r.body)
			if err == nil && sameAsInProcess {
				err = sameBytes(st, r.k, r.body)
			}
			c.record(err == nil, "request %d: %v", r.k, err)
		}
	})
}

func sameBytes(st *stream, k int, body []byte) error {
	want, err := reference(st, k)
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("report differs from the in-process report for seed %d", st.requestSeed(k))
	}
	return nil
}

// checkJobs gates the jobs-journal loop: every submit is acknowledged
// 202, and every job settles done, carrying the report — byte for byte
// once re-encoded — that the in-process run of its request gives.
func checkJobs(c *checker, st *stream, run *jobsRun, workers int) {
	parallel(len(run.submits), workers, func(i int) {
		r := run.submits[i]
		if r.err != nil || r.status != http.StatusAccepted {
			c.record(false, "submit %d: status %d, %v: %.200s", r.k, r.status, r.err, r.body)
			return
		}
		data, ok := run.settled[r.k]
		if !ok {
			c.record(false, "job %d never settled", r.k)
			return
		}
		err := checkJob(st, r.k, data)
		c.record(err == nil, "job %d: %v", r.k, err)
	})
}

func checkJob(st *stream, k int, data []byte) error {
	env, err := dip.DecodeWireJob(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if env.State != dip.JobStateDone {
		return fmt.Errorf("state %s: %s", env.State, env.Error)
	}
	var buf bytes.Buffer
	if err := env.Report.Encode(&buf); err != nil {
		return err
	}
	if err := checkReport(st, k, buf.Bytes()); err != nil {
		return err
	}
	return sameBytes(st, k, buf.Bytes())
}

// parallel runs f(0..n-1) on workers goroutines.
func parallel(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
