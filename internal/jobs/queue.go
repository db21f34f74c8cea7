// Package jobs is the durable async job tier: a small Queue interface
// (publish, dequeue, ack/nack) with swappable backends (in-memory,
// file-backed journal), a worker pool that drains it with bounded
// retries and a poison lane, and a TTL-bounded result store with idempotency-key
// dedup. cmd/dipserve wires it behind POST /v1/jobs for proofs too
// heavy for the synchronous 503-when-full admission queue: the backlog
// may be arbitrary, workers may crash, and with the file backend the
// whole process may be SIGKILL'd — on restart the journal replays the
// backlog exactly where it stood.
//
// The payload is opaque bytes end to end: the queue never interprets
// it, so the tier has no dependency on the protocol engine and can
// carry any unit of work.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
)

// Job is one queued unit of work. The queue owns ID uniqueness checks;
// the caller mints IDs (the service derives them from a boot stamp and
// a sequence number so they stay unique across restarts).
type Job struct {
	// ID identifies the job everywhere: queue, journal, store, API.
	ID string `json:"id"`
	// Key is the client's idempotency key, empty when none was given.
	// The queue itself does not dedup on it — the Store does — but the
	// journal persists it so dedup survives a restart.
	Key string `json:"key,omitempty"`
	// Payload is the opaque work description (a dip.Request document at
	// the service).
	Payload json.RawMessage `json:"payload"`
}

// Result is the terminal outcome of a job, recorded by Ack.
type Result struct {
	// OK reports success; Output then holds the job's product (a
	// dip-report/v1 document at the service).
	OK     bool            `json:"ok"`
	Output json.RawMessage `json:"output,omitempty"`
	// Error is the failure description when !OK.
	Error string `json:"error,omitempty"`
	// Parked marks a poison job: every attempt failed retryably until
	// the attempt budget ran out, so the job was parked rather than
	// retried forever. Parked implies !OK.
	Parked bool `json:"parked,omitempty"`
	// Attempts is how many run attempts the job consumed.
	Attempts int `json:"attempts,omitempty"`
}

// Queue is a swappable job-queue backend. A dequeued job is in flight
// until the consumer settles it with exactly one Ack or returns it with
// Nack; a durable backend persists only Publish and Ack, so an in-flight
// job that is never settled (worker crash, process death) replays as
// pending on the next open.
type Queue interface {
	// Publish adds a job to the backlog. It fails on duplicate IDs, a
	// closed queue, or a full backlog (ErrBacklogFull).
	Publish(j *Job) error
	// Dequeue blocks for the next pending job until ctx is done
	// (returning ctx.Err()) or the queue closes (returning ErrClosed).
	Dequeue(ctx context.Context) (*Job, error)
	// Ack settles an in-flight job with its terminal result.
	Ack(id string, res Result) error
	// Nack returns an in-flight job to the front of the backlog (the
	// attempt did not complete; someone else may pick it up).
	Nack(id string) error
	// Depth is the current pending backlog (excluding in-flight jobs).
	Depth() int
	// InFlight is the number of dequeued-but-unsettled jobs.
	InFlight() int
	// Close shuts the queue: Dequeue returns ErrClosed, Publish fails.
	// In-flight jobs may still be settled (a durable backend records
	// those late acks before releasing the journal).
	Close() error
}

var (
	// ErrClosed is returned by queue operations after Close.
	ErrClosed = errors.New("jobs: queue closed")
	// ErrBacklogFull rejects a Publish that would grow the pending
	// backlog past the queue's bound.
	ErrBacklogFull = errors.New("jobs: backlog full")
	// ErrDuplicateID rejects a Publish whose ID is already known.
	ErrDuplicateID = errors.New("jobs: duplicate job id")
	// ErrUnknownJob is returned by Ack/Nack for an ID not in flight.
	ErrUnknownJob = errors.New("jobs: unknown or not in-flight job id")
)

// MemQueue is the in-memory backend: a FIFO backlog under one mutex.
// Nothing survives the process — it is the right backend when clients
// can resubmit, and the reference semantics the file backend must match.
type MemQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*Job
	inflight map[string]*Job
	seen     map[string]bool // every ID ever published (duplicate guard)
	bound    int
	closed   bool
}

// NewMemQueue builds an in-memory queue holding at most bound pending
// jobs (0 means a default generous bound).
func NewMemQueue(bound int) *MemQueue {
	if bound <= 0 {
		bound = DefaultBacklogBound
	}
	q := &MemQueue{
		inflight: make(map[string]*Job),
		seen:     make(map[string]bool),
		bound:    bound,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// DefaultBacklogBound caps the pending backlog when the caller does not
// choose one: large enough for any realistic sweep, small enough that a
// submission storm cannot grow process memory without bound.
const DefaultBacklogBound = 65536

func (q *MemQueue) Publish(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.seen[j.ID] {
		return ErrDuplicateID
	}
	if len(q.pending) >= q.bound {
		return ErrBacklogFull
	}
	q.seen[j.ID] = true
	q.pending = append(q.pending, j)
	q.cond.Signal()
	return nil
}

func (q *MemQueue) Dequeue(ctx context.Context) (*Job, error) {
	// cond.Wait cannot watch ctx, so a helper goroutine pokes the cond
	// when the context ends; the loop re-checks ctx on every wakeup.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()

	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if q.closed {
			return nil, ErrClosed
		}
		if len(q.pending) > 0 {
			j := q.pending[0]
			q.pending = q.pending[1:]
			q.inflight[j.ID] = j
			return j, nil
		}
		q.cond.Wait()
	}
}

func (q *MemQueue) Ack(id string, _ Result) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.inflight[id]; !ok {
		return ErrUnknownJob
	}
	delete(q.inflight, id)
	return nil
}

func (q *MemQueue) Nack(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.inflight[id]
	if !ok {
		return ErrUnknownJob
	}
	delete(q.inflight, id)
	// Front of the backlog: a nacked job was admitted before everything
	// pending, so it keeps its place in line.
	q.pending = append([]*Job{j}, q.pending...)
	q.cond.Signal()
	return nil
}

func (q *MemQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

func (q *MemQueue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.inflight)
}

func (q *MemQueue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
	return nil
}
