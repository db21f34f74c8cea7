package network

import (
	"errors"
	"sync"
	"testing"

	"dip/internal/graph"
)

// restoreStatePool reconfigures the pool for a test and restores the
// default layout (and counters' shard count) when the test ends.
func restoreStatePool(t *testing.T, shards, capacity int) {
	t.Helper()
	prevShards := len(*statePool.shards.Load())
	statePool.mu.Lock()
	prevNominal := statePool.nominal
	statePool.configure(shards, capacity)
	statePool.mu.Unlock()
	t.Cleanup(func() {
		statePool.mu.Lock()
		statePool.configure(prevShards, prevNominal)
		statePool.mu.Unlock()
	})
}

// TestShardedPoolCapacityLayout pins the capacity-distribution contract:
// the configured total is spread across shards with the remainder as the
// overflow budget, and the aggregate snapshot reports exactly the
// configured bound — with more shards than states, the shards get
// nothing and the overflow list holds them all.
func TestShardedPoolCapacityLayout(t *testing.T) {
	cases := []struct {
		shards, nominal  int
		perShard, ovflow int
	}{
		{4, 32, 8, 0},
		{4, 30, 7, 2},
		{8, 4, 0, 4}, // more shards than states: all in overflow
		{1, 0, defaultPoolCap, 0},
	}
	for _, c := range cases {
		restoreStatePool(t, c.shards, c.nominal)
		st := StatePoolStats()
		if len(st.Shards) != c.shards {
			t.Fatalf("configure(%d,%d): %d shards", c.shards, c.nominal, len(st.Shards))
		}
		for i, sh := range st.Shards {
			if sh.Capacity != c.perShard {
				t.Fatalf("configure(%d,%d): shard %d capacity %d, want %d",
					c.shards, c.nominal, i, sh.Capacity, c.perShard)
			}
		}
		if st.Overflow == nil || st.Overflow.Capacity != c.ovflow {
			t.Fatalf("configure(%d,%d): overflow %+v, want capacity %d",
				c.shards, c.nominal, st.Overflow, c.ovflow)
		}
		if want := c.perShard*c.shards + c.ovflow; st.Capacity != want {
			t.Fatalf("configure(%d,%d): aggregate capacity %d, want %d",
				c.shards, c.nominal, st.Capacity, want)
		}
	}
}

// TestShardedPoolBitIdentical forces a multi-shard layout (this box may
// run with GOMAXPROCS=1, i.e. one shard by default) and checks the pooling
// contract across shards: concurrent runs through different home shards
// remain bit-identical to their pool-cold execution, and the pool retains
// no more than its capacity.
func TestShardedPoolBitIdentical(t *testing.T) {
	restoreStatePool(t, 4, 8)

	g := graph.Cycle(10)
	spec := echoSpec(24)
	opts := Options{Seed: 5}
	want, err := Run(spec, g, nil, echoProver{}, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := Run(spec, g, nil, echoProver{}, opts)
				if err != nil {
					errs <- err
					return
				}
				for v := range want.Decisions {
					if res.Decisions[v] != want.Decisions[v] ||
						res.Cost.ToProver[v] != want.Cost.ToProver[v] ||
						res.Cost.FromProver[v] != want.Cost.FromProver[v] ||
						res.Cost.NodeToNode[v] != want.Cost.NodeToNode[v] {
						errs <- errMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent pooled run: %v", err)
	}

	st := StatePoolStats()
	if st.Free > st.Capacity {
		t.Fatalf("pool leaked: %d free > %d capacity", st.Free, st.Capacity)
	}
	if st.Hits+st.Misses < workers*iters+1 {
		t.Fatalf("pool under-counted: %d hits + %d misses for %d runs",
			st.Hits, st.Misses, workers*iters+1)
	}
}

var errMismatch = errors.New("pooled result differs from cold run")

// TestSetStatePoolCapacityRoundTrip pins SetStatePoolCapacity's return
// contract (previous configured capacity) across the sharded layout.
func TestSetStatePoolCapacityRoundTrip(t *testing.T) {
	restoreStatePool(t, 2, 0)
	if prev := SetStatePoolCapacity(48); prev != defaultPoolCap {
		t.Fatalf("first resize returned %d, want default %d", prev, defaultPoolCap)
	}
	if prev := SetStatePoolCapacity(0); prev != 48 {
		t.Fatalf("second resize returned %d, want 48", prev)
	}
	st := StatePoolStats()
	if st.Capacity != defaultPoolCap {
		t.Fatalf("capacity %d after restore, want %d", st.Capacity, defaultPoolCap)
	}
}
