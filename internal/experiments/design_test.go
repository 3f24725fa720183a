package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignIndexMatchesRegistry keeps DESIGN.md §3 and Registry in step:
// every registered experiment has exactly one index row naming
// `repro <name>`, that row's claim column is the Spec's Claim, and every
// name the index mentions is registered.
func TestDesignIndexMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start, end := strings.Index(doc, "## 3. Per-experiment index"), strings.Index(doc, "## 4. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 per-experiment index followed by §4")
	}
	rows := map[string][]string{} // name → the row's cells
	name := regexp.MustCompile("`repro ([a-z0-9-]+)`")
	for _, line := range strings.Split(doc[start:end], "\n") {
		m := name.FindStringSubmatch(line)
		if m == nil || !strings.HasPrefix(line, "|") {
			continue
		}
		if _, ok := Lookup(m[1]); !ok {
			t.Errorf("DESIGN.md §3 names unregistered experiment %q", m[1])
		}
		if _, dup := rows[m[1]]; dup {
			t.Errorf("DESIGN.md §3 indexes %q twice", m[1])
		}
		rows[m[1]] = strings.Split(line, " | ")
	}
	for _, s := range Registry() {
		cells, ok := rows[s.Name]
		if !ok {
			t.Errorf("DESIGN.md §3 has no row regenerated by `repro %s`", s.Name)
			continue
		}
		if len(cells) < 2 || cells[1] != s.Claim {
			t.Errorf("DESIGN.md §3 row for %s does not carry its Claim %q", s.Name, s.Claim)
		}
	}
}
