// Command perfbench is the repository benchmark. It launches the
// eXACML+ data server as a process of its own (sut.go), drives it over
// loopback TCP through the public client package with one of three
// workloads (ingest, deliver, access), checks every output against a
// reference, and prints one JSON result line last:
//
//	perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, which come from timing
// calls into each layer from this package (traced.go, layers.go).
// NOTES.md explains why each workload exists, how the metrics interact
// and what the benchmark leaves out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// Workload names, as BENCHMARK.json lists them.
const (
	wlIngest  = "ingest"
	wlDeliver = "deliver"
	wlAccess  = "access"
)

// config is one benchmark run's settings. defaultConfig holds the
// sizes BENCHMARK.json's runs use; tests shrink them.
type config struct {
	workload string
	seed     int64
	run      time.Duration
	trace    bool
	// setups is how many times each pass launches and sets up the
	// server; setup_s is their median and the last one runs the load.
	setups int

	// corrupt alters one value of the expected output before the check
	// (tests only: proves the checker fails a wrong answer).
	corrupt bool
}

// Workload shapes (see NOTES.md for why).
const (
	ingestBatch  = 256  // tuples per ingest publish
	gpsDevices   = 64   // GPS trackers interleaved in the ingest feed
	deliverBatch = 16   // tuples per deliver publish
	deliverRate  = 4000 // deliver's offered load, tuples/s
	updateEvery  = 10   // access: every updateEvery-th operation re-uploads a policy
)

func defaultConfig() config { return config{setups: 5} }

// accessParams is the paper's Table 3 workload on seed.
func accessParams(seed int64) workload.Params {
	p := workload.TableThree()
	p.Seed = seed
	return p
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := defaultConfig()
	fs.StringVar(&cfg.workload, "workload", "", "workload: ingest, deliver or access")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	secs := fs.Float64("seconds", 20, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	trajectory := fs.String("trajectory", "perfbench/results/trajectory.jsonl", "JSON-lines file each result is appended to (empty disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.run = time.Duration(*secs * float64(time.Second))
	cfg.trace = *trace == 1
	switch cfg.workload {
	case wlIngest, wlDeliver, wlAccess:
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (ingest, deliver, access)\n", cfg.workload)
		return 2
	}
	if cfg.run <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}

	steal0, total0 := cpuTimes()
	rep, err := runBenchmark(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	prov := provenanceFor(cfg)
	if steal1, total1 := cpuTimes(); total1 > total0 {
		prov.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	printReport(stdout, prov, rep)
	if *trajectory != "" {
		if err := appendTrajectory(*trajectory, prov, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trajectory: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is everything one run produced: the result line plus the
// human-readable detail printed above it and kept in the trajectory.
type report struct {
	result result
	// named are figures printed and kept beside the result but not
	// part of it (not gated): other percentiles, counts, the
	// generator's lateness.
	named []namedValue
	notes []string
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBenchmark runs the untraced pass, or for a traced run the whole
// layer battery, and assembles the result line.
func runBenchmark(cfg config) (report, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	p, err := runPass(cfg, cfg.workload, passOpts{})
	if err != nil {
		return report{}, err
	}
	metrics := map[string]metric{}
	for _, n := range endToEnd(p) {
		metrics[n.Name] = metric{n.Value, n.Unit}
	}
	return report{
		result: result{Correct: p.correct(), Attempted: p.attempted, Failed: p.failed, Metrics: metrics},
		named:  p.named,
		notes:  p.notes,
	}, nil
}

// endToEnd is every end-to-end figure of a pass, as BENCHMARK.json
// lists them. The names are shared by every workload; NOTES.md gives
// what each means per workload.
func endToEnd(p passResult) []namedValue {
	return []namedValue{
		{"setup_s", median(p.setupS), "s"},
		{"ok_frac", p.okFrac(), "ratio"},
		{"ops_per_s", p.throughput, "1/s"},
		{"latency_p50_ms", p.latP50, "ms"},
		{"write_p50_ms", p.writeP50, "ms"},
		{"cpu_us_per_op", p.cpuPerOp, "us"},
		{"peak_rss_mb", p.rssMB, "MB"},
	}
}

func printReport(w io.Writer, prov provenance, rep report) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v commit=%s source=%s gomaxprocs=%d nproc=%d host=%s %s steal=%.4f\n",
		prov.Workload, prov.Seed, prov.Seconds, prov.Trace, prov.Commit, prov.SourceHash,
		prov.GOMAXPROCS, prov.NumCPU, prov.Host, prov.GoVersion, prov.StealFrac)
	for _, name := range sortedKeys(rep.result.Metrics) {
		m := rep.result.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.named {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", n.Name, n.Value, n.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rep.result.Attempted, rep.result.Failed, rep.result.Correct)
}
