package obs

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestSingleGoroutineImports holds the non-test files of every package
// under internal/obs to rule 3 of the package doc: no plane locks, uses
// atomics, or serves a live endpoint. It reads the imports with
// go/build and runs no subprocess.
func TestSingleGoroutineImports(t *testing.T) {
	forbidden := map[string]bool{
		"sync": true, "sync/atomic": true,
		"net/http": true, "net/http/pprof": true, "expvar": true,
	}
	pkgs := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		pkgs++
		for _, imp := range pkg.Imports {
			if forbidden[imp] {
				t.Errorf("%s imports %q at %v", dir, imp, pkg.ImportPos[imp])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs < 3 {
		t.Errorf("checked %d packages under internal/obs, want at least 3", pkgs)
	}
}

// TestEngineImportsNoPlane holds the planes downstream of the data path:
// internal/netsim and internal/pacer, and every repro package their
// non-test files import in turn, import no package under internal/obs.
// A plane reads the engine through Sim.Subscribe and keeps its adapter
// beside its own format; the engine knows of no plane. It maps import
// paths to directories by the module prefix and runs no subprocess.
func TestEngineImportsNoPlane(t *testing.T) {
	const module, root = "repro/", "../.."
	seen := map[string]bool{}
	queue := []string{"repro/internal/netsim", "repro/internal/pacer"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if seen[path] {
			continue
		}
		seen[path] = true
		pkg, err := build.ImportDir(filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module))), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if imp == "repro/internal/obs" || strings.HasPrefix(imp, "repro/internal/obs/") {
				t.Errorf("%s imports %q at %v", path, imp, pkg.ImportPos[imp])
			}
			if strings.HasPrefix(imp, module) {
				queue = append(queue, imp)
			}
		}
	}
	if !seen["repro/internal/topology"] {
		t.Errorf("walked %d packages and not netsim's topology import: the walk is broken", len(seen))
	}
}
