package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// ValidateOutputPath checks that an output-file flag value (silo-sim's
// -trace, -series, -incidents, -introspect) can plausibly be written,
// so a typo'd path fails at startup with a clear message instead of
// after the whole run has completed. "" (no file) is always valid; "-"
// never is, because stdout carries the rendered reports. For anything
// else the parent directory must exist and the path must not name a
// directory.
func ValidateOutputPath(flagName, path string) error {
	if path == "" {
		return nil
	}
	if path == "-" {
		return fmt.Errorf("%s: cannot write to stdout (\"-\"); give a file path", flagName)
	}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return fmt.Errorf("%s: %q is a directory, not a writable file path", flagName, path)
	}
	dir := filepath.Dir(path)
	st, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("%s: parent directory %q does not exist (writing %q would fail only after the run)", flagName, dir, path)
	}
	if !st.IsDir() {
		return fmt.Errorf("%s: %q is not a directory", flagName, dir)
	}
	return nil
}
