package obs

import (
	"fmt"
	"os"
	"path/filepath"
)

// ValidateOutputPath checks that an output-file flag value (-metrics,
// -trace, -series, ...) can plausibly be written, so a typo'd path
// fails at startup with a clear message instead of after the whole run
// has completed. "" and "-" (stdout) are always valid. For anything
// else the parent directory must exist and the path must not name a
// directory.
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

// CLIConfig selects the telemetry destinations for one CLI run.
type CLIConfig struct {
	// MetricsPath, when set, receives the registry at finish time
	// ("-" writes Prometheus text to stdout, *.json expvar-style JSON,
	// any other path Prometheus text).
	MetricsPath string
	// HTTPAddr, when set, serves /metrics and /debug/vars (plus
	// whatever the caller attaches via DebugServer.Handle) during the
	// run.
	HTTPAddr string
	// Pprof additionally exposes /debug/pprof on the HTTP endpoint.
	Pprof bool
	// ForceRegistry allocates a registry even when neither export
	// destination is set — for features that consume live metrics
	// internally (silo-sim's -series / -slo-report time-series rollup).
	ForceRegistry bool
}

// StartCLI implements the standard telemetry wiring shared by the silo
// binaries' -metrics/-http/-pprof flags:
//
//   - nothing requested: telemetry disabled — returns a nil registry
//     (every instrumentation site then costs one branch), a nil debug
//     server and a no-op finish.
//   - HTTPAddr set: a debug server runs until finish is called; it is
//     returned so callers can attach the dashboard handlers.
//   - MetricsPath set: finish exports the registry there.
//
// Call finish exactly once, after the run completes.
func StartCLI(cfg CLIConfig) (reg *Registry, srv *DebugServer, finish func() error, err error) {
	if cfg.MetricsPath == "" && cfg.HTTPAddr == "" && !cfg.ForceRegistry {
		return nil, nil, func() error { return nil }, nil
	}
	reg = NewRegistry()
	if cfg.HTTPAddr != "" {
		srv, err = ServeDebug(cfg.HTTPAddr, reg, DebugOptions{Pprof: cfg.Pprof})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("obs: debug server: %w", err)
		}
	}
	finish = func() error {
		_ = srv.Close()
		return reg.WriteFile(cfg.MetricsPath)
	}
	return reg, srv, finish, nil
}
