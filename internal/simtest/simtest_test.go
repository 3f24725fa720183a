package simtest

import (
	"fmt"
	"strings"
	"testing"
)

func TestMatrixShape(t *testing.T) {
	serial := Serial()
	if len(serial) != 4 || serial[0] != (Mode{}) {
		t.Fatalf("Serial() = %v, want 4 modes with the oracle (serial, both fast paths off) first", serial)
	}
	for _, tc := range []struct{ nodes, want int }{{1, 4 + 12}, {3, 4 + 24}, {7, 4 + 36}, {8, 4 + 48}} {
		nodes, want := tc.nodes, tc.want
		modes := Sharded(nodes)
		if len(modes) != want || modes[0] != (Mode{}) {
			t.Errorf("Sharded(%d) has %d modes starting at %v, want %d starting at the oracle", nodes, len(modes), modes[0], want)
		}
		seen := map[Mode]bool{}
		for _, m := range modes {
			if seen[m] || m.Shards > nodes {
				t.Errorf("Sharded(%d): mode %v repeated or over the node count", nodes, m)
			}
			seen[m] = true
		}
	}
}

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheckNamesModeAndFirstDifferingLine(t *testing.T) {
	rec := &recorder{TB: t}
	Check(rec, Serial(), func(m Mode) string {
		if m.Inline && m.Batched {
			return "a\nb\nX\nd\ne\n"
		}
		return "a\nb\nc\nd\n"
	})
	if len(rec.errs) != 1 {
		t.Fatalf("Check reported %d divergences, want 1: %q", len(rec.errs), rec.errs)
	}
	for _, want := range []string{"serial inline=true batched=true", "at line 3", `"X"`, `"c"`, "(6 lines, reference 5)"} {
		if !strings.Contains(rec.errs[0], want) {
			t.Errorf("report %q does not contain %q", rec.errs[0], want)
		}
	}
}
