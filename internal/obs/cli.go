package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// ValidateOutputPath checks that an output-file flag value (silo-sim's
// -trace, -series, -incidents, -introspect) can plausibly be written,
// so a typo'd path fails at startup with a clear message instead of
// after the whole run has completed. "" (no file) and "-" (stdout, as
// -incidents takes it) are always valid. For anything else the parent
// directory must exist and the path must not name a directory.
func ValidateOutputPath(flagName, path string) error {
	if path == "" || path == "-" {
		return nil
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
