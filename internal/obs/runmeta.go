package obs

import (
	"fmt"
	"os"
	"runtime/debug"
	"strings"
)

// RunMeta identifies the exact run that produced an artifact: which
// tool, at which source revision, with which seed, scheme and command
// line. Every CSV and JSON artifact the CLIs write
// carries it — as a `meta` object in JSON, as leading `# run: ...`
// comment lines in CSV — so an incident export or a benchmark baseline
// is attributable long after the terminal scrollback is gone.
//
// Meta is provenance, not payload: determinism gates compare artifacts
// with the meta stripped, because Version and Flags legitimately differ
// between otherwise identical runs.
type RunMeta struct {
	// Tool is the producing command ("silo-sim", "silo-bench", ...).
	Tool string `json:"tool"`
	// Version is the VCS revision baked into the binary by the Go
	// toolchain ("abc123def456" or "abc123def456-dirty"), or the module
	// version, or "unknown" for plain `go run` builds without VCS
	// stamping.
	Version string `json:"version"`
	// Seed is the workload RNG seed, 0 when the tool has none.
	Seed int64 `json:"seed,omitempty"`
	// Scheme is the transport scheme under test, "" when not
	// applicable.
	Scheme string `json:"scheme,omitempty"`
	// Flags is the command line the tool was invoked with.
	Flags string `json:"flags,omitempty"`
}

// CollectRunMeta builds the metadata for the running binary: version
// from the build info, flags from the process arguments. Callers fill
// Seed/Scheme from their parsed flags.
func CollectRunMeta(tool string) RunMeta {
	return RunMeta{
		Tool:    tool,
		Version: buildVersion(),
		Flags:   strings.Join(os.Args[1:], " "),
	}
}

// buildVersion extracts the VCS revision the binary was built from.
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "-dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "unknown"
}

// CommentLine renders the metadata as one `#`-prefixed CSV comment
// line. A nil receiver renders "" so call sites need no conditional.
func (m *RunMeta) CommentLine() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# run: tool=%s version=%s", m.Tool, m.Version)
	if m.Seed != 0 {
		fmt.Fprintf(&b, " seed=%d", m.Seed)
	}
	if m.Scheme != "" {
		fmt.Fprintf(&b, " scheme=%s", m.Scheme)
	}
	if m.Flags != "" {
		fmt.Fprintf(&b, " flags=%q", m.Flags)
	}
	return b.String()
}
