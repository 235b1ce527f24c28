package silo

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite examples/*/testdata/stdout.golden")

// TestExamplesMatchGoldens builds the three example programs, the only
// callers of the public facade's Admit / Deploy / CoordinateHose
// besides the benchmark, and compares each one's stdout with its
// examples/<e>/testdata/stdout.golden; -update rewrites them. README's
// "Quick start" console block must show quickstart's golden verbatim.
func TestExamplesMatchGoldens(t *testing.T) {
	bin := t.TempDir()
	goOutput(t, "build", "-o", bin+string(filepath.Separator), "./examples/...")
	for _, e := range []string{"quickstart", "oldi", "besteffort"} {
		out, err := exec.Command(filepath.Join(bin, e)).Output()
		if err != nil {
			t.Fatalf("examples/%s: %v", e, err)
		}
		path := filepath.Join("examples", e, "testdata", "stdout.golden")
		if *updateExamples {
			if err := os.WriteFile(path, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("examples/%s stdout differs from %s (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", e, path, out, want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("examples", "quickstart", "testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	block := []byte("```console\n$ go run ./examples/quickstart\n")
	block = append(append(block, golden...), "```\n"...)
	if !bytes.Contains(readme, block) {
		t.Errorf("README.md has no console block showing go run ./examples/quickstart printing:\n%s", golden)
	}
}
