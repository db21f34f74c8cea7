package network

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"dip/internal/graph"
	"dip/internal/obs"
	"dip/internal/wire"
)

// This file is the run-state layer: everything one run needs, gathered in
// a single pooled object. The experiment harness executes hundreds of
// trials per cell (experiments.RunTrials), and before this layer existed
// every trial re-allocated its node views, view backing arrays, RNGs,
// exchange maps, and adjacency snapshot from scratch. A runState keeps all
// of that and is reused through an explicit free list.
//
// What is pooled and what is not follows one rule: anything reachable from
// the returned *Result is freshly allocated per run (Cost's backing,
// Decisions, the Transcript and its rows), because callers retain results
// — experiments.TrialStats.Sample is read long after its trial finished.
// Everything only reachable during the run (views, RNG state, exchange
// maps, scratch rows, the ProverView's challenge rows) is pooled.
//
// The free list is a plain mutex-guarded LIFO with a fixed cap rather than
// a sync.Pool: sync.Pool empties on GC, which would make the engine's
// allocations per run depend on GC timing — and the recorded
// allocs-per-op figure in BENCH_seed1.json (and the bench-check gate over
// it) requires run costs to be deterministic.

type runState struct {
	// Per-run wiring, set by reset and cleared by release.
	spec   *Spec
	g      *graph.Graph
	inputs []wire.Message
	prover Prover
	opts   Options
	n      int

	// script is the compiled schedule both executors interpret. It points
	// into the process-global script cache for cacheable schedules (see
	// compiledScript) and at ownScript otherwise; either way the executors
	// treat it as read-only.
	script    *script
	ownScript script

	// home is the pool shard this state was checked out for; release
	// returns it there first so a warm shard stays warm.
	home int

	// nbrs is the adjacency snapshot: both executors route messages
	// exclusively through it, never through g after reset, which (a)
	// avoids per-exchange Neighbors allocations and (b) insulates verifier
	// decisions from a prover that violates the ProverView.Graph read-only
	// contract mid-run. adjFlat/adjOff are its pooled backing.
	nbrs    [][]int
	adjFlat []int
	adjOff  []int

	// Fresh per run (escape into the Result).
	cost       Cost
	transcript *Transcript
	decisions  []bool

	// pv is the prover's view; its Challenges rows are carved from the
	// pooled chalRows backing (row k = chalRows[k*n:(k+1)*n]), valid only
	// for the duration of the run — provers must not retain them.
	pv       ProverView
	chalRows []wire.Message

	// Per-node state: views plus their append backings (capacity-clipped
	// so an append can never cross into the next node's region), one
	// splitmix source per node, and the *rand.Rand wrappers. rngs[v]
	// points at &sources[v], so the two arrays grow together and a reused
	// Rand is re-seeded via Rand.Seed (which also resets the Rand's
	// buffered read state) — bit-identical to a fresh rand.New over
	// nodeSource(seed, v).
	views       []NodeView
	sources     []splitmixSource
	rngs        []*rand.Rand
	myBack      []wire.Message
	respBack    []wire.Message
	nbrRespBack []map[int]wire.Message
	nbrChalBack []map[int]wire.Message

	// Scratch rows for the driver side of a Merlin round: the delivered
	// (post-corruption) messages and their digests.
	delivered []wire.Message
	forwards  []wire.Message

	// abandoned is set when a ProverTimeout expired: the abandoned Respond
	// goroutine may still reference this state, so release must drop it to
	// the garbage collector instead of pooling it.
	abandoned bool
}

// statePool is the explicit free list (see the file comment for why it is
// not a sync.Pool). It is shared by the whole process: the experiment
// harness's trial workers and the verification service's request workers
// all check states out of this pool, so a warm server recycles engine
// state across requests exactly like a warm harness recycles it across
// trials.
//
// The pool is sharded: one freelist per P (GOMAXPROCS at init) plus a
// global overflow list, so concurrent workers do not serialize on one
// mutex. A caller is assigned a home shard round-robin from an atomic
// counter; acquire tries home → overflow → stealing from the other shards
// before allocating fresh, which keeps the steady-state allocation count
// deterministic (the bench-check gate over BENCH_seed1.json depends on
// that) while spreading lock traffic C-ways. release returns a state to
// its home shard, spilling to overflow and finally dropping when full —
// total retained states stay bounded by the configured capacity.
var statePool pool

type pool struct {
	next atomic.Uint64
	// shards is swapped atomically by configure so the lock-free hot path
	// never races a reconfiguration; a release that lands in an orphaned
	// shard merely loses that one state to the garbage collector.
	shards   atomic.Pointer[[]poolShard]
	overflow poolShard

	// mu guards capacity reconfiguration only; the hot path never takes it.
	mu      sync.Mutex
	nominal int // last SetStatePoolCapacity argument (0 = default)
}

// poolShard is one mutex-guarded LIFO freelist. Its counters describe the
// shard's own freelist traffic: hits are pops served from this shard
// (including steals by other home shards), misses are acquisitions that
// found the whole pool empty and allocated (charged to the home shard),
// drops are releases discarded because every eligible list was full
// (charged to the overflow shard, the last resort).
type poolShard struct {
	mu                  sync.Mutex
	free                []*runState
	cap                 int
	hits, misses, drops int64
}

func (sh *poolShard) tryPop() *runState {
	sh.mu.Lock()
	n := len(sh.free)
	if n == 0 {
		sh.mu.Unlock()
		return nil
	}
	s := sh.free[n-1]
	sh.free[n-1] = nil
	sh.free = sh.free[:n-1]
	sh.hits++
	sh.mu.Unlock()
	return s
}

func (sh *poolShard) tryPush(s *runState) bool {
	sh.mu.Lock()
	if len(sh.free) >= sh.cap {
		sh.mu.Unlock()
		return false
	}
	sh.free = append(sh.free, s)
	sh.mu.Unlock()
	return true
}

const defaultPoolCap = 32

func init() {
	shards := runtime.GOMAXPROCS(0)
	if shards < 1 {
		shards = 1
	}
	if shards > 64 {
		shards = 64
	}
	statePool.configure(shards, 0)
}

// configure rebuilds the shard layout for a total capacity of nominal
// states (0 selects the default). The capacity is spread evenly across the
// shards with the remainder as the overflow list's budget, so the total
// bound is exactly the configured one: below one state per shard, the
// shards get capacity zero and every release spills to the overflow list.
// Retained states already in the lists are dropped; configure is called
// at init, from SetStatePoolCapacity, and from tests.
func (p *pool) configure(shards, nominal int) {
	total := nominal
	if total <= 0 {
		total = defaultPoolCap
	}
	perShard := total / shards
	overflowCap := total - perShard*shards
	fresh := make([]poolShard, shards)
	for i := range fresh {
		fresh[i].cap = perShard
	}
	// Preserve monotone counters and as many warm states as fit.
	if old := p.shards.Load(); old != nil {
		for i := range *old {
			sh := &(*old)[i]
			sh.mu.Lock()
			dst := &fresh[i%shards]
			dst.hits += sh.hits
			dst.misses += sh.misses
			dst.drops += sh.drops
			for _, s := range sh.free {
				if !dst.tryPush(s) {
					break
				}
			}
			sh.mu.Unlock()
		}
	}
	p.shards.Store(&fresh)
	p.overflow.mu.Lock()
	p.overflow.cap = overflowCap
	if len(p.overflow.free) > overflowCap {
		for i := overflowCap; i < len(p.overflow.free); i++ {
			p.overflow.free[i] = nil
		}
		p.overflow.free = p.overflow.free[:overflowCap]
	}
	p.overflow.mu.Unlock()
	p.nominal = nominal
}

// PoolShardStats is the snapshot of one pool shard.
type PoolShardStats struct {
	Capacity int   `json:"capacity"`
	Free     int   `json:"free"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Drops    int64 `json:"drops"`
}

func (sh *poolShard) snapshot() PoolShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return PoolShardStats{
		Capacity: sh.cap,
		Free:     len(sh.free),
		Hits:     sh.hits,
		Misses:   sh.misses,
		Drops:    sh.drops,
	}
}

// PoolStats is a snapshot of the sharded engine-state pool, exported for
// service metrics: a hit ratio near 1 means steady-state traffic runs
// allocation-free through the pool. The top-level fields aggregate across
// all shards (Capacity is the retained-state bound, equal to the
// configured capacity); Shards and Overflow
// break the same numbers down per freelist.
type PoolStats struct {
	Capacity int              `json:"capacity"`
	Free     int              `json:"free"`
	Hits     int64            `json:"hits"`
	Misses   int64            `json:"misses"`
	Drops    int64            `json:"drops"`
	Shards   []PoolShardStats `json:"shards,omitempty"`
	Overflow *PoolShardStats  `json:"overflow,omitempty"`
}

// StatePoolStats returns the current pool snapshot.
func StatePoolStats() PoolStats {
	statePool.mu.Lock()
	defer statePool.mu.Unlock()
	var out PoolStats
	shards := *statePool.shards.Load()
	out.Shards = make([]PoolShardStats, len(shards))
	for i := range shards {
		s := shards[i].snapshot()
		out.Shards[i] = s
		out.Capacity += s.Capacity
		out.Free += s.Free
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Drops += s.Drops
	}
	ov := statePool.overflow.snapshot()
	out.Overflow = &ov
	out.Capacity += ov.Capacity
	out.Free += ov.Free
	out.Hits += ov.Hits
	out.Misses += ov.Misses
	out.Drops += ov.Drops
	return out
}

// SetStatePoolCapacity resizes the pool and returns the previously
// configured capacity. Long-running servers size it to their worker count
// so a full complement of in-flight requests can recycle state without
// allocating; n <= 0 restores the default. Shrinking drops the excess
// retained states immediately.
func SetStatePoolCapacity(n int) int {
	statePool.mu.Lock()
	defer statePool.mu.Unlock()
	prev := statePool.nominal
	if prev <= 0 {
		prev = defaultPoolCap
	}
	statePool.configure(len(*statePool.shards.Load()), n)
	return prev
}

// acquireState pops a pooled state — home shard, then overflow, then
// stealing from the remaining shards — or builds an empty one.
func acquireState() *runState {
	p := &statePool
	shards := *p.shards.Load()
	nShards := len(shards)
	h := int((p.next.Add(1) - 1) % uint64(nShards))
	if s := shards[h].tryPop(); s != nil {
		s.home = h
		return s
	}
	if s := p.overflow.tryPop(); s != nil {
		s.home = h
		return s
	}
	for i := 1; i < nShards; i++ {
		if s := shards[(h+i)%nShards].tryPop(); s != nil {
			s.home = h
			return s
		}
	}
	sh := &shards[h]
	sh.mu.Lock()
	sh.misses++
	sh.mu.Unlock()
	return &runState{home: h}
}

// reset prepares the state for one run: compiles the script, takes the
// adjacency snapshot, sizes every pooled array for (spec, n), re-seeds the
// node RNGs, and allocates the run's fresh (escaping) pieces.
func (s *runState) reset(spec *Spec, g *graph.Graph, inputs []wire.Message, p Prover, opts Options, n int) {
	s.spec, s.g, s.inputs, s.prover, s.opts, s.n = spec, g, inputs, p, opts, n
	s.abandoned = false
	s.script = compiledScript(spec, &s.ownScript)
	nA, nM := s.script.nA, s.script.nM

	s.cost = newCost(spec, n)
	s.transcript = nil
	if opts.RecordTranscript {
		s.transcript = &Transcript{Name: spec.Name}
	}
	s.decisions = make([]bool, n)

	// Adjacency snapshot: offsets first (appending may reallocate
	// adjFlat), then the capacity-clipped per-node headers.
	s.adjFlat = s.adjFlat[:0]
	s.adjOff = growInts(s.adjOff, n+1)
	for v := 0; v < n; v++ {
		s.adjOff[v] = len(s.adjFlat)
		s.adjFlat = g.AppendNeighbors(v, s.adjFlat)
	}
	s.adjOff[n] = len(s.adjFlat)
	s.nbrs = growRows(s.nbrs, n)
	for v := 0; v < n; v++ {
		lo, hi := s.adjOff[v], s.adjOff[v+1]
		s.nbrs[v] = s.adjFlat[lo:hi:hi]
	}

	s.chalRows = growMessages(s.chalRows, n*nA)
	s.myBack = growMessages(s.myBack, n*nA)
	s.respBack = growMessages(s.respBack, n*nM)
	s.nbrRespBack = growMaps(s.nbrRespBack, n*nM)
	if spec.ShareChallenges {
		s.nbrChalBack = growMaps(s.nbrChalBack, n*nA)
	}
	s.delivered = growMessages(s.delivered, n)
	s.forwards = growMessages(s.forwards, n)

	s.pv.Graph = g
	s.pv.Inputs = inputs
	s.pv.Challenges = s.pv.Challenges[:0]

	// sources and rngs grow in lockstep: each Rand wraps &sources[v], so a
	// reallocation of sources must rebuild every Rand (and a non-grown
	// reuse must re-seed through Rand.Seed to also reset its buffered read
	// state — see rng.go for the shared seeding).
	if cap(s.sources) < n {
		s.sources = make([]splitmixSource, n)
		s.rngs = make([]*rand.Rand, n)
		for v := 0; v < n; v++ {
			s.sources[v] = nodeSource(opts.Seed, v)
			s.rngs[v] = rand.New(&s.sources[v])
		}
	} else {
		s.sources = s.sources[:n]
		s.rngs = s.rngs[:n]
		for v := 0; v < n; v++ {
			s.rngs[v].Seed(mix(opts.Seed, int64(v)))
		}
	}

	if cap(s.views) < n {
		s.views = make([]NodeView, n)
	} else {
		s.views = s.views[:n]
	}
	for v := 0; v < n; v++ {
		s.views[v] = NodeView{
			V:                 v,
			NumVertices:       n,
			Neighbors:         s.nbrs[v],
			MyChallenges:      s.myBack[v*nA : v*nA : (v+1)*nA],
			Responses:         s.respBack[v*nM : v*nM : (v+1)*nM],
			NeighborResponses: s.nbrRespBack[v*nM : v*nM : (v+1)*nM],
		}
		if spec.ShareChallenges {
			s.views[v].NeighborChallenges = s.nbrChalBack[v*nA : v*nA : (v+1)*nA]
		}
		if inputs != nil {
			s.views[v].Input = inputs[v]
		}
	}
}

// release returns the state to the pool after dropping every per-run
// reference: caller data (spec, graph, prover, options with their
// injector closures), the escaping pieces (cost, decisions, transcript),
// and the message headers and exchange-map entries of the finished run —
// a pooled state must not pin another run's payloads alive.
func (s *runState) release() {
	if s.abandoned {
		return // a timed-out prover goroutine may still hold this state
	}
	clearMessages(s.chalRows)
	clearMessages(s.myBack)
	clearMessages(s.respBack)
	clearMessages(s.delivered)
	clearMessages(s.forwards)
	clearMaps(s.nbrRespBack)
	clearMaps(s.nbrChalBack)
	for i := range s.pv.Challenges {
		s.pv.Challenges[i] = nil
	}
	s.pv.Challenges = s.pv.Challenges[:0]
	s.pv.Graph, s.pv.Inputs = nil, nil
	s.spec, s.g, s.inputs, s.prover = nil, nil, nil, nil
	s.opts = Options{}
	s.cost = Cost{}
	s.transcript = nil
	s.decisions = nil
	s.script = nil

	p := &statePool
	shards := *p.shards.Load()
	if s.home < len(shards) && shards[s.home].tryPush(s) {
		return
	}
	if p.overflow.tryPush(s) {
		return
	}
	p.overflow.mu.Lock()
	p.overflow.drops++
	p.overflow.mu.Unlock()
}

// finish assembles the Result of a completed run and publishes the
// funnel's delivery meters to the process-global obs counters — once per
// run, from the charge totals, so the per-delivery hot path stays free of
// atomics.
func (s *runState) finish() *Result {
	accepted := true
	for _, d := range s.decisions {
		accepted = accepted && d
	}
	bits := 0
	for v := 0; v < s.n; v++ {
		bits += s.cost.ToProver[v] + s.cost.FromProver[v] + s.cost.NodeToNode[v]
	}
	count := s.n*(s.script.nA+s.script.nM) + s.script.nEx*len(s.adjFlat)
	obs.RecordDeliveries(int64(count), int64(bits))
	return &Result{
		Accepted:   accepted,
		Decisions:  s.decisions,
		Cost:       s.cost,
		Transcript: s.transcript,
	}
}

// The grow helpers resize a pooled slice to length n, reallocating only
// when capacity is exhausted. Stale contents beyond a previous, shorter
// run are unreachable (release zeroed them).

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growRows(s [][]int, n int) [][]int {
	if cap(s) < n {
		return make([][]int, n)
	}
	return s[:n]
}

func growMessages(s []wire.Message, n int) []wire.Message {
	if cap(s) < n {
		return make([]wire.Message, n)
	}
	return s[:n]
}

func growMaps(s []map[int]wire.Message, n int) []map[int]wire.Message {
	if cap(s) < n {
		return make([]map[int]wire.Message, n)
	}
	return s[:n]
}

func clearMessages(ms []wire.Message) {
	for i := range ms {
		ms[i] = wire.Message{}
	}
}

func clearMaps(maps []map[int]wire.Message) {
	for _, m := range maps {
		if len(m) > 0 {
			clear(m)
		}
	}
}
