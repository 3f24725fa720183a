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
