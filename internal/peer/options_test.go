package peer

import (
	"math"
	"strings"
	"testing"
	"time"

	"dip/internal/faults"
)

// TestOptionsValidate pins every refusal of Options.Validate, including
// NaN probabilities, which fail no ordered comparison and so once slipped
// through a `p < 0 || p > 1` check.
func TestOptionsValidate(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		opts Options
		want string // "" means valid
	}{
		{"zero", Options{}, ""},
		{"valid policy", Options{DialTimeout: time.Second, IOTimeout: time.Second,
			LinkFaults: &faults.LinkPolicy{Seed: 1, Delay: time.Millisecond, DelayProb: 1, DropProb: 0.25}}, ""},
		{"negative dial timeout", Options{DialTimeout: -1}, "DialTimeout"},
		{"negative io timeout", Options{IOTimeout: -time.Second}, "IOTimeout"},
		{"negative delay", Options{LinkFaults: &faults.LinkPolicy{Delay: -1}}, "LinkFaults.Delay"},
		{"delay prob below 0", Options{LinkFaults: &faults.LinkPolicy{DelayProb: -0.1}}, "DelayProb"},
		{"delay prob above 1", Options{LinkFaults: &faults.LinkPolicy{DelayProb: 1.5}}, "DelayProb"},
		{"delay prob NaN", Options{LinkFaults: &faults.LinkPolicy{DelayProb: nan}}, "DelayProb"},
		{"drop prob below 0", Options{LinkFaults: &faults.LinkPolicy{DropProb: -1}}, "DropProb"},
		{"drop prob above 1", Options{LinkFaults: &faults.LinkPolicy{DropProb: 2}}, "DropProb"},
		{"drop prob NaN", Options{LinkFaults: &faults.LinkPolicy{DropProb: nan}}, "DropProb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}
