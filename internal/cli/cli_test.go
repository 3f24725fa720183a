package cli

import (
	"strings"
	"testing"
)

// TestValidateShards covers the shards × {trace, profile-vt, ledger}
// matrix: every observer records one serial timeline, so each is legal
// on the serial engine and rejected beside -shards > 1.
func TestValidateShards(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		tf     *Trace
		obs    *Observe
		err    string // empty: accepted
	}{
		{"serial, no observers", 1, nil, nil, ""},
		{"serial, flags off", 1, &Trace{}, &Observe{}, ""},
		{"serial with trace", 1, &Trace{Path: "t.json"}, nil, ""},
		{"serial with profile-vt", 1, nil, &Observe{ProfilePath: "p.folded"}, ""},
		{"serial with ledger", 1, nil, &Observe{LedgerPath: "l.json"}, ""},
		{"sharded, no observers", 8, nil, nil, ""},
		{"sharded, flags off", 2, &Trace{}, &Observe{}, ""},
		{"sharded with trace", 2, &Trace{Path: "t.json"}, &Observe{}, "cannot be combined with -trace"},
		{"sharded with profile-vt", 2, &Trace{}, &Observe{ProfilePath: "p.folded"}, "cannot be combined with -profile-vt/-ledger"},
		{"sharded with ledger", 4, nil, &Observe{LedgerPath: "l.json"}, "cannot be combined with -profile-vt/-ledger"},
		{"zero shards", 0, nil, nil, "-shards must be at least 1, got 0"},
		{"negative shards", -3, nil, nil, "-shards must be at least 1, got -3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateShards(c.shards, c.tf, c.obs)
			switch {
			case c.err == "" && err != nil:
				t.Errorf("rejected: %v", err)
			case c.err != "" && err == nil:
				t.Errorf("accepted, want error containing %q", c.err)
			case c.err != "" && !strings.Contains(err.Error(), c.err):
				t.Errorf("error %q does not contain %q", err, c.err)
			}
		})
	}
}
