package detector

import (
	"slices"
	"testing"

	"demandrace/internal/vclock"
)

var sinkParties []vclock.TID

// TestDistinctParties checks the barrier's party deduplication: the
// scheduler's strictly ascending lists pass through without a copy or an
// allocation, and any other list comes back sorted without repeats.
func TestDistinctParties(t *testing.T) {
	asc := []vclock.TID{0, 2, 3, 7}
	if got := distinct(asc); &got[0] != &asc[0] || !slices.Equal(got, asc) {
		t.Errorf("distinct(%v) = %v, want the input itself", asc, got)
	}
	if allocs := testing.AllocsPerRun(100, func() { sinkParties = distinct(asc) }); allocs != 0 {
		t.Errorf("distinct on ascending parties: %.0f allocs, want 0", allocs)
	}
	in := []vclock.TID{3, 0, 3, 2, 0, 2}
	if got := distinct(in); !slices.Equal(got, []vclock.TID{0, 2, 3}) {
		t.Errorf("distinct(%v) = %v, want [0 2 3]", in, got)
	}
	if !slices.Equal(in, []vclock.TID{3, 0, 3, 2, 0, 2}) {
		t.Errorf("distinct wrote its input: %v", in)
	}
}
