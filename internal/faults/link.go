package faults

import "time"

// LinkPolicy is a socket-level fault schedule for fleet transports:
// delay and drop decisions on the coordinator→peer links, one per step
// batch — the frame that carries one schedule step's traffic for every
// node a peer hosts — keyed statelessly by (seed, peer, batch sequence
// within the run) with the same splitmix64 derivation the delivery-plane
// injectors use. Two runs with the same seed and the same batch order
// make identical decisions, so a fleet-under-chaos run is as replayable
// as an in-process faulted one.
//
// A delayed batch is held for Delay before it reaches the socket (the
// transport's sleep must stay cancel-aware); a dropped batch never
// reaches the socket at all, emulating a partitioned link — every node
// the peer hosts misses the step, the session stalls until the peer or
// coordinator deadline fires, and the run fails with a structured
// transport error. Faults can delay or kill a run but never alter
// delivered bits, so decision soundness is untouched.
type LinkPolicy struct {
	// Seed keys the schedule; 0 is a valid seed, not "disabled".
	Seed int64
	// Delay is the injected latency per affected batch.
	Delay time.Duration
	// DelayProb is the probability in [0,1] that a batch is delayed.
	DelayProb float64
	// DropProb is the probability in [0,1] that a batch is dropped.
	DropProb float64
}

// Enabled reports whether the policy can affect any batch.
func (p LinkPolicy) Enabled() bool {
	return (p.DelayProb > 0 && p.Delay > 0) || p.DropProb > 0
}

// Decide returns the fate of one outbound batch: how long to hold it and
// whether to drop it instead of sending. peer is the fleet index of the
// destination peer and seq the batch's send sequence number within its
// session, so the decision depends only on delivery coordinates.
func (p LinkPolicy) Decide(peer, seq int) (delay time.Duration, drop bool) {
	if p.DropProb > 0 {
		u := float64(deriveState(p.Seed, 0x11, uint64(peer), uint64(seq))>>11) / (1 << 53)
		if u < p.DropProb {
			return 0, true
		}
	}
	if p.DelayProb > 0 && p.Delay > 0 {
		u := float64(deriveState(p.Seed, 0x22, uint64(peer), uint64(seq))>>11) / (1 << 53)
		if u < p.DelayProb {
			return p.Delay, false
		}
	}
	return 0, false
}
