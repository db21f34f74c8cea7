package peer

import (
	"fmt"
	"time"

	"dip/internal/faults"
)

// Default timeouts for fleet configuration. These are the single source
// of truth: peer.Options, the dippeer flags, and the root package's
// FleetOptions all resolve onto them.
const (
	// DefaultDialTimeout bounds one TCP connect to a peer.
	DefaultDialTimeout = 5 * time.Second
	// DefaultIOTimeout bounds each blocking wait on the wire — a write,
	// or one session's wait for its next expected frame — on both the
	// coordinator and the server side.
	DefaultIOTimeout = 30 * time.Second
)

// Options is the one validated fleet configuration struct, shared by
// every layer that touches the peer wire: the Server (IOTimeout), the
// Fleet client (all fields), the dippeer flags, and dip.FleetOptions,
// which is a thin public projection of it. Zero values mean defaults.
type Options struct {
	// DialTimeout bounds each TCP connect. Zero means DefaultDialTimeout.
	DialTimeout time.Duration
	// IOTimeout bounds each blocking wire wait. Zero means
	// DefaultIOTimeout.
	IOTimeout time.Duration
	// LinkFaults, when non-nil, injects seed-deterministic per-batch
	// delay/drop on the coordinator→peer links (see faults.LinkPolicy).
	LinkFaults *faults.LinkPolicy
}

// Validate rejects configurations that cannot mean anything: negative
// timeouts and out-of-range fault probabilities. The probability checks
// are written so that NaN fails them too: a NaN DropProb would otherwise
// pass and silently disable the fault (no draw is ever below NaN).
func (o Options) Validate() error {
	if o.DialTimeout < 0 {
		return fmt.Errorf("peer: negative DialTimeout %v", o.DialTimeout)
	}
	if o.IOTimeout < 0 {
		return fmt.Errorf("peer: negative IOTimeout %v", o.IOTimeout)
	}
	if lf := o.LinkFaults; lf != nil {
		if !(lf.DelayProb >= 0 && lf.DelayProb <= 1) {
			return fmt.Errorf("peer: LinkFaults.DelayProb %v outside [0,1]", lf.DelayProb)
		}
		if !(lf.DropProb >= 0 && lf.DropProb <= 1) {
			return fmt.Errorf("peer: LinkFaults.DropProb %v outside [0,1]", lf.DropProb)
		}
		if lf.Delay < 0 {
			return fmt.Errorf("peer: negative LinkFaults.Delay %v", lf.Delay)
		}
	}
	return nil
}

// withDefaults returns o with zero timeouts resolved to the package
// defaults.
func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.IOTimeout == 0 {
		o.IOTimeout = DefaultIOTimeout
	}
	return o
}
