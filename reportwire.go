package dip

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ReportSchema identifies the versioned JSON encoding of a single protocol
// run. It is the one report format of the project: cmd/dipsim -json writes
// it, cmd/dipserve answers every run request with it, cmd/dipload decodes
// it, and cmd/dipbench -validate checks it.
const ReportSchema = "dip-report/v1"

// WireReport is the dip-report/v1 document: a Report plus the identifying
// context of the run (protocol, size, seed) and optional provenance fields
// filled by the tool that produced it.
type WireReport struct {
	Schema   string `json:"schema"`
	Protocol string `json:"protocol"`
	// Nodes is the network size of the run.
	Nodes int   `json:"nodes"`
	Seed  int64 `json:"seed"`
	// Accepted and RejectingNodes encode the outcome; RejectingNodes lists
	// the indices that output reject (empty iff Accepted).
	Accepted       bool  `json:"accepted"`
	RejectingNodes []int `json:"rejecting_nodes,omitempty"`
	// Cost block, as in Report.
	MaxProverBits     int         `json:"max_prover_bits"`
	TotalProverBits   int         `json:"total_prover_bits"`
	MaxNodeToNodeBits int         `json:"max_node_to_node_bits"`
	MaxNode           int         `json:"max_node"`
	PerRound          []RoundCost `json:"per_round,omitempty"`

	// Optional provenance, filled by tools that know it. Graph names the
	// generator used to build the instance (dipsim); the Fault block
	// records injected faults; Deliveries/DeliveredBits are engine-wide
	// delivery counters for the run.
	Graph         string  `json:"graph,omitempty"`
	Fault         string  `json:"fault,omitempty"`
	FaultPlane    string  `json:"fault_plane,omitempty"`
	FaultProb     float64 `json:"fault_prob,omitempty"`
	Deliveries    int64   `json:"deliveries,omitempty"`
	DeliveredBits int64   `json:"delivered_bits,omitempty"`
}

// WireReportFrom shapes a Report into its dip-report/v1 document. seed is
// the Options.Seed of the run (the Report itself does not carry it).
func WireReportFrom(rep Report, seed int64) *WireReport {
	var rejecting []int
	for v, ok := range rep.Decisions {
		if !ok {
			rejecting = append(rejecting, v)
		}
	}
	return &WireReport{
		Schema:            ReportSchema,
		Protocol:          rep.Protocol,
		Nodes:             len(rep.Decisions),
		Seed:              seed,
		Accepted:          rep.Accepted,
		RejectingNodes:    rejecting,
		MaxProverBits:     rep.MaxProverBits,
		TotalProverBits:   rep.TotalProverBits,
		MaxNodeToNodeBits: rep.MaxNodeToNodeBits,
		MaxNode:           rep.MaxNode,
		PerRound:          rep.PerRound,
	}
}

// Validate checks the structural invariants of a dip-report/v1 document.
func (w *WireReport) Validate() error {
	if w.Schema != ReportSchema {
		return fmt.Errorf("report: schema %q, want %q", w.Schema, ReportSchema)
	}
	if w.Protocol == "" {
		return fmt.Errorf("report: missing protocol")
	}
	if w.Nodes < 1 {
		return fmt.Errorf("report: %d nodes", w.Nodes)
	}
	if len(w.RejectingNodes) > w.Nodes {
		return fmt.Errorf("report: %d rejecting nodes of %d", len(w.RejectingNodes), w.Nodes)
	}
	if w.Accepted != (len(w.RejectingNodes) == 0) {
		return fmt.Errorf("report: accepted=%v with %d rejecting nodes", w.Accepted, len(w.RejectingNodes))
	}
	for _, v := range w.RejectingNodes {
		if v < 0 || v >= w.Nodes {
			return fmt.Errorf("report: rejecting node %d outside [0,%d)", v, w.Nodes)
		}
	}
	if w.MaxNode < 0 || w.MaxNode >= w.Nodes {
		return fmt.Errorf("report: max_node %d outside [0,%d)", w.MaxNode, w.Nodes)
	}
	if w.MaxProverBits < 0 || w.TotalProverBits < w.MaxProverBits || w.MaxNodeToNodeBits < 0 {
		return fmt.Errorf("report: inconsistent cost block (max %d, total %d, n2n %d)",
			w.MaxProverBits, w.TotalProverBits, w.MaxNodeToNodeBits)
	}
	if len(w.PerRound) > 0 {
		sum := 0
		for i, r := range w.PerRound {
			if r.Kind != "Arthur" && r.Kind != "Merlin" {
				return fmt.Errorf("report: round %d kind %q", i, r.Kind)
			}
			if r.ToProver < 0 || r.FromProver < 0 || r.NodeToNode < 0 {
				return fmt.Errorf("report: round %d has negative bits", i)
			}
			sum += r.ToProver + r.FromProver
		}
		// PerRound is the breakdown at MaxNode, so its prover bits sum to
		// the max-node cost exactly.
		if sum != w.MaxProverBits {
			return fmt.Errorf("report: per-round prover bits sum to %d, max_prover_bits %d", sum, w.MaxProverBits)
		}
	}
	if !(w.FaultProb >= 0 && w.FaultProb <= 1) { // also refuses NaN
		return fmt.Errorf("report: fault_prob %v", w.FaultProb)
	}
	if w.Deliveries < 0 || w.DeliveredBits < 0 {
		return fmt.Errorf("report: negative delivery counters")
	}
	return nil
}

// Encode writes the document as stable, indented JSON with a trailing
// newline (the repo-wide results-file convention).
func (w *WireReport) Encode(out io.Writer) error {
	data, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = out.Write(data)
	return err
}

// DecodeWireReport parses and validates a dip-report/v1 document.
func DecodeWireReport(r io.Reader) (*WireReport, error) {
	var w WireReport
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	// Canonicalize: an explicitly-empty list and an absent one are the
	// same document, but Encode (omitempty) only ever writes the absent
	// form — without this a `"per_round": []` input would not survive a
	// decode/encode round trip bit-identically.
	if len(w.RejectingNodes) == 0 {
		w.RejectingNodes = nil
	}
	if len(w.PerRound) == 0 {
		w.PerRound = nil
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// ReadWireReportFile decodes and validates the report at path.
func ReadWireReportFile(path string) (*WireReport, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return DecodeWireReport(in)
}
