package measure

import (
	"fmt"
	"strings"
)

// BudgetTolerance is how far the attributed rows of a latency budget may
// overshoot the client-observed total, as a share of it, before the table
// is rejected. Server stage rows are exact means while the total is a
// median, so a small overshoot is sampling, a large one a mis-attribution.
const BudgetTolerance = 0.05

// BudgetRow is one line of the latency budget, in µs per frame.
type BudgetRow struct {
	Name string
	Us   float64
}

// Budget splits the client-observed median frame round trip into the
// layers that can be measured from outside, plus an unattributed
// remainder: client, syscalls, loopback and scheduling.
type Budget struct {
	TotalUs float64
	Rows    []BudgetRow // attributed rows, then "unattributed" last
}

// NewBudget appends the unattributed row so the rows sum to totalUs, and
// fails when the attributed rows exceed totalUs by more than
// BudgetTolerance of it.
func NewBudget(totalUs float64, rows []BudgetRow) (Budget, error) {
	var attributed float64
	for _, r := range rows {
		attributed += r.Us
	}
	b := Budget{TotalUs: totalUs, Rows: append(append([]BudgetRow(nil), rows...),
		BudgetRow{Name: "unattributed", Us: totalUs - attributed})}
	if attributed > totalUs*(1+BudgetTolerance) {
		return b, fmt.Errorf("measure: budget rows sum to %.2f µs, over the client p50 %.2f µs by more than %.0f%%",
			attributed, totalUs, 100*BudgetTolerance)
	}
	return b, nil
}

// Sum adds every row, unattributed included.
func (b Budget) Sum() float64 {
	var s float64
	for _, r := range b.Rows {
		s += r.Us
	}
	return s
}

// UnattributedShare is the unattributed row over the total.
func (b Budget) UnattributedShare() float64 {
	if b.TotalUs == 0 {
		return 0
	}
	return b.Rows[len(b.Rows)-1].Us / b.TotalUs
}

// Table renders the budget for humans.
func (b Budget) Table(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "latency budget, %s (µs per frame; client p50 %.2f µs; tolerance %.0f%%)\n",
		title, b.TotalUs, 100*BudgetTolerance)
	for _, r := range b.Rows {
		share := 0.0
		if b.TotalUs != 0 {
			share = 100 * r.Us / b.TotalUs
		}
		fmt.Fprintf(&sb, "  %-14s %10.2f  %6.1f%%\n", r.Name, r.Us, share)
	}
	fmt.Fprintf(&sb, "  %-14s %10.2f  %6.1f%%\n", "sum", b.Sum(), 100*b.Sum()/b.TotalUs)
	return sb.String()
}
