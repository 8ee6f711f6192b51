package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// provenance identifies where and on what a result was measured.
type provenance struct {
	Time       string  `json:"time"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Host       string  `json:"host"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	// StealFrac is the share of the host's CPU time the hypervisor
	// stole during the run (/proc/stat): a shift in it tells a change
	// in the host's regime from a regression.
	StealFrac float64 `json:"steal_frac"`
}

func provenanceFor(cfg config) provenance {
	host, _ := os.Hostname()
	return provenance{
		Time:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(),
		SourceHash: sourceHash("."),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		NumCPU:     goruntime.NumCPU(),
		Host:       host,
		GoVersion:  goruntime.Version(),
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.run.Seconds(),
		Trace:      cfg.trace,
	}
}

// commit is the checkout's git commit, or "unknown" when the checkout
// is not a git work tree (the source hash still identifies the code).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, in
// path order, skipping build outputs and hidden directories.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		h.Write([]byte(path))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the host's cumulative CPU time from /proc/stat: the
// time stolen by the hypervisor and the total, in clock ticks (zeros
// where unavailable). A run's share of stolen time says how much the
// shared host interfered with it.
func cpuTimes() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// that follow are already counted in user and nice.
	for i, f := range fields[1:9] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// trajectoryEntry is one line of the trajectory file.
type trajectoryEntry struct {
	provenance
	Result result       `json:"result"`
	Named  []namedValue `json:"named,omitempty"`
	Notes  []string     `json:"notes,omitempty"`
}

// appendTrajectory appends the run to a JSON-lines file, so results
// accumulate run after run instead of overwriting each other.
func appendTrajectory(path string, prov provenance, rep report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(trajectoryEntry{provenance: prov, Result: rep.result, Named: rep.named, Notes: rep.notes})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
