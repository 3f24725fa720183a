package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
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

// TestFlushFormats checks that each output file's format follows its
// extension, ignoring case: -trace writes Chrome JSON for .json and text
// otherwise, -profile-vt writes folded stacks for .folded and a table
// plus histograms otherwise, and -ledger writes JSON for .json and the
// decision report otherwise.
func TestFlushFormats(t *testing.T) {
	flushTrace := func(path string) error {
		tf := &Trace{Path: path}
		tr := tf.Tracer()
		tr.Emit(trace.Event{At: 5, Kind: trace.KindLockAcquire, Name: "mu"})
		return tf.Flush(tr, nil)
	}
	flushProfile := func(path string) error {
		o := &Observe{ProfilePath: path}
		p := o.Profiler()
		p.Register("worker", 0).Flush(100)
		p.RecordWait("mu", 7)
		return o.Flush()
	}
	flushLedger := func(path string) error {
		o := &Observe{LedgerPath: path}
		o.Ledger() // builds the empty ledger that Flush writes
		return o.Flush()
	}
	cases := []struct {
		file  string
		flush func(string) error
		json  bool     // the file must parse as JSON
		want  []string // and contain each of these
	}{
		{"t.json", flushTrace, true, []string{`"traceEvents"`}},
		{"t.JSON", flushTrace, true, []string{`"traceEvents"`}},
		{"t.log", flushTrace, false, []string{"lock-acquire"}},
		{"t", flushTrace, false, []string{"lock-acquire"}},
		{"p.folded", flushProfile, false, []string{"worker;queued 100\n"}},
		{"p.FOLDED", flushProfile, false, []string{"worker;queued 100\n"}},
		{"p.txt", flushProfile, false, []string{"virtual-time attribution", "wait mu"}},
		{"l.json", flushLedger, true, []string{`"entries"`}},
		{"l.Json", flushLedger, true, []string{`"entries"`}},
		{"l.txt", flushLedger, false, []string{"why did it switch?"}},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, fmt.Sprint(i, "-", c.file))
		if err := c.flush(path); err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if json.Valid(data) != c.json {
			t.Errorf("%s: JSON = %v, want %v:\n%s", c.file, json.Valid(data), c.json, data)
		}
		for _, w := range c.want {
			if !strings.Contains(string(data), w) {
				t.Errorf("%s: missing %q:\n%s", c.file, w, data)
			}
		}
	}
}
