package obs

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
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
	if pkgs < 5 {
		t.Errorf("checked %d packages under internal/obs, want at least 5", pkgs)
	}
}
