package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.txt from the current experiments")

// TestGolden pins every registered experiment's full default output,
// byte for byte, to testdata/golden/<name>.txt. Regenerate after an
// intended output change with
//
//	go test ./internal/experiments -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, spec := range Registry() {
		t.Run(spec.Name, func(t *testing.T) {
			res, err := spec.Run(Env{Jobs: runtime.GOMAXPROCS(0)})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Text
			path := filepath.Join("testdata", "golden", spec.Name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s",
					spec.Name, path, got, want)
			}
		})
	}
}
