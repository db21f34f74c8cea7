package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dip"
	"dip/internal/bitset"
	"dip/internal/core"
	"dip/internal/hashing"
	"dip/internal/jobs"
	"dip/internal/wire"
)

// publishRow times jobs.FileQueue.Publish — the admission step of the
// job tier, journal append included — for each sampled request, on a
// scratch journal, the way dipserve's POST /v1/jobs publishes: the
// decoded request re-encoded as the payload. It returns the mean in µs
// and one root span per publish.
func publishRow(bodies [][]byte, dir string, origin time.Time) (float64, []span, error) {
	path := filepath.Join(dir, "trace.journal")
	q, err := jobs.OpenFileQueue(path, len(bodies)+1, time.Hour)
	if err != nil {
		return 0, nil, err
	}
	defer os.Remove(path)
	t := &tracer{on: true, origin: origin}
	for k, body := range bodies {
		var req dip.Request
		if err := json.Unmarshal(body, &req); err != nil {
			q.Close()
			return 0, nil, err
		}
		payload, err := json.Marshal(req)
		if err != nil {
			q.Close()
			return 0, nil, err
		}
		t.req = int32(k)
		i := t.begin(spanPublish)
		err = q.Publish(&jobs.Job{ID: fmt.Sprintf("trace-%d", k), Payload: payload})
		t.end(i)
		if err != nil {
			q.Close()
			return 0, nil, err
		}
	}
	if err := q.Close(); err != nil {
		return 0, nil, err
	}
	var total int64
	for _, s := range t.spans {
		total += s.End - s.Start
	}
	return float64(total) / 1e3 / float64(len(bodies)), t.spans, nil
}

// rowHashRequests bounds the requests the hashing row draws its instances
// from.
const rowHashRequests = 64

// microBlocks and microBlock size a micro row: it repeats its work in
// blocks of at least microBlock and reports the median block, so a
// garbage collection or a stolen slice of CPU moves one block only.
const (
	microBlocks = 5
	microBlock  = 40 * time.Millisecond
)

// microMedian runs pass until each of microBlocks blocks has lasted
// microBlock, and returns the median over blocks of the time per unit of
// work, in ns; pass returns the units of work it did.
func microMedian(pass func() (float64, error)) (float64, error) {
	var per []float64
	for b := 0; b < microBlocks; b++ {
		units := 0.0
		start := time.Now()
		for time.Since(start) < microBlock {
			u, err := pass()
			if err != nil {
				return 0, err
			}
			units += u
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/units)
	}
	return median(per), nil
}

// rowHashRow times the Lemma 3.2 hash of one adjacency row (the per-node
// hash of Protocols 1 and 2) at the instance size and modulus of the
// sampled sym-dmam and sym-dam requests, over every row of every
// instance. It returns µs per row.
func rowHashRow(st *stream, sample int) (float64, error) {
	type instance struct {
		n      int
		family *hashing.LinearFamily
		seed   *big.Int
		rows   []*bitset.Set
	}
	var insts []instance
	for k := 0; k < sample && len(insts) < rowHashRequests; k++ {
		req, err := st.request(k)
		if err != nil {
			return 0, err
		}
		var p *big.Int
		switch req.Protocol {
		case "sym-dmam":
			proto, err := core.NewSymDMAM(req.N, req.Options.Seed)
			if err != nil {
				return 0, err
			}
			p = proto.P()
		case "sym-dam":
			proto, err := core.NewSymDAM(req.N, req.Options.Seed)
			if err != nil {
				return 0, err
			}
			p = proto.P()
		default:
			continue
		}
		family, err := hashing.NewLinearFamily(req.N*req.N, p)
		if err != nil {
			return 0, err
		}
		g, err := buildGraph(req.N, req.Edges)
		if err != nil {
			return 0, err
		}
		rows := make([]*bitset.Set, req.N)
		for v := range rows {
			rows[v] = g.ClosedRow(v)
		}
		seed := family.RandomSeed(rand.New(rand.NewSource(req.Options.Seed)))
		insts = append(insts, instance{n: req.N, family: family, seed: seed, rows: rows})
	}
	if len(insts) == 0 {
		return 0, fmt.Errorf("no sampled request hashes adjacency rows")
	}
	ns, err := microMedian(func() (float64, error) {
		calls := 0
		for _, in := range insts {
			for v, row := range in.rows {
				in.family.HashRowMatrix(in.seed, in.n, v, row)
			}
			calls += in.n
		}
		return float64(calls), nil
	})
	return ns / 1e3, err
}

// codecRow times the bit codec on the workload's recorded prover
// messages: each is written with a wire.Writer and read back in 64-bit
// chunks with a wire.Reader. It checks that the round trip is exact and
// returns ns per kbit.
func codecRow(msgs []wire.Message) (float64, error) {
	bits := 0
	for _, m := range msgs {
		bits += m.Bits
		got, err := roundTrip(m)
		if err != nil {
			return 0, err
		}
		if got.Bits != m.Bits || !bytes.Equal(got.Data, m.Data) {
			return 0, fmt.Errorf("wire round trip changed a %d-bit message", m.Bits)
		}
	}
	if bits == 0 {
		return 0, fmt.Errorf("no prover messages recorded")
	}
	return microMedian(func() (float64, error) {
		for _, m := range msgs {
			if _, err := roundTrip(m); err != nil {
				return 0, err
			}
		}
		return float64(bits) / 1e3, nil
	})
}

func roundTrip(m wire.Message) (wire.Message, error) {
	var w wire.Writer
	w.WriteBits(m.Data, m.Bits)
	r := wire.NewReader(w.Message())
	var back wire.Writer
	for left := m.Bits; left > 0; {
		width := min(left, 64)
		v, err := r.ReadUint(width)
		if err != nil {
			return wire.Message{}, err
		}
		back.WriteUint(v, width)
		left -= width
	}
	if err := r.Done(); err != nil {
		return wire.Message{}, err
	}
	return back.Message(), nil
}
