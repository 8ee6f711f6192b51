package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/stream"
)

// TestMain lets the test binary stand in for the server process: the
// benchmark launches its own executable with "sut" as first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

var workloads = []string{wlIngest, wlDeliver, wlAccess}

// tinyConfig is a seconds-long run of wl on a seed other than the
// default.
func tinyConfig(wl string) config {
	cfg := defaultConfig()
	cfg.workload = wl
	cfg.seed = 7
	cfg.run = 1500 * time.Millisecond
	cfg.setups = 2
	return cfg
}

type metricSpec struct{ Name, Unit string }

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics fails unless got holds exactly the listed metrics, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing from the result", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case m.Value != m.Value:
			t.Errorf("metric %s is NaN", w.Name)
		}
	}
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json names the
// workloads and metrics this package runs and prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloads, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the benchmark runs %s", got, want)
	}
	units := map[string]string{}
	for _, n := range endToEnd(passResult{}) {
		units[n.Name] = n.Unit
	}
	if len(b.EndToEnd) != len(units) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the result carries %d", len(b.EndToEnd), len(units))
	}
	for _, m := range b.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not in the result with that unit", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, a traced run prints %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s (%s) is not printed with that unit", m.Name, m.Unit)
		}
	}
}

// TestSmoke runs every workload briefly on seed 7 and requires every
// output check to pass: no failure of any kind is tolerated.
func TestSmoke(t *testing.T) {
	want := readBenchmarkFile(t).EndToEnd
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			rep, err := runBenchmark(tinyConfig(wl))
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result
			checkMetrics(t, res.Metrics, want)
			if res.Attempted < 10 {
				t.Fatalf("only %d operations attempted", res.Attempted)
			}
			for _, m := range want {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("correct=%v: %d of %d operations failed; notes: %v", res.Correct, res.Failed, res.Attempted, rep.notes)
			}
		})
	}
}

// TestCheckerHasTeeth corrupts one expected output per workload and
// requires the run to count it as failed and report itself incorrect.
func TestCheckerHasTeeth(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(wl)
			cfg.setups = 1
			cfg.corrupt = true
			rep, err := runBenchmark(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result
			if res.Correct || res.Failed == 0 || res.Metrics["ok_frac"].Value >= 1 {
				t.Fatalf("corrupted reference passed: correct=%v failed=%d ok_frac=%v",
					res.Correct, res.Failed, res.Metrics["ok_frac"].Value)
			}
		})
	}
}

// TestPrintsEveryMetric runs the command's entry point and checks that
// its last line is the result with every end-to-end metric of
// BENCHMARK.json, and that the lines above print each by name with its
// unit.
func TestPrintsEveryMetric(t *testing.T) {
	var out bytes.Buffer
	args := []string{"--workload", wlDeliver, "--seed", "9", "--seconds", "1", "--trace", "0",
		"--trajectory", t.TempDir() + "/trajectory.jsonl"}
	if code := benchMain(args, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := readBenchmarkFile(t).EndToEnd
	checkMetrics(t, metrics, want)
	printsMetrics(t, lines[:len(lines)-1], want)
}

// printsMetrics fails unless some line names each metric, then its
// unit.
func printsMetrics(t *testing.T, lines []string, want []metricSpec) {
	t.Helper()
	for _, w := range want {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) >= 3 && f[0] == w.Name && f[2] == w.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("report does not print %s with unit %s", w.Name, w.Unit)
		}
	}
}

// TestTraced runs the traced battery briefly on every workload and
// checks that it prints every per-layer metric of BENCHMARK.json by
// name with its unit, with its outputs correct.
func TestTraced(t *testing.T) {
	want := readBenchmarkFile(t).PerLayer
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(wl)
			cfg.trace = true
			rep, err := runBenchmark(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rep.result.Metrics, want)
			var out bytes.Buffer
			printReport(&out, provenanceFor(cfg), rep)
			printsMetrics(t, strings.Split(out.String(), "\n"), want)
			if !rep.result.Correct || rep.result.Failed != 0 {
				t.Errorf("traced run: correct=%v, %d of %d operations failed: %v",
					rep.result.Correct, rep.result.Failed, rep.result.Attempted, rep.notes)
			}
			// The layers every workload exercises read positive.
			positive := []string{
				"protocol.publish_bytes_per_tuple", "protocol.push_decode_ns_per_tuple",
				"dsms.grant_ns_per_tuple", "xacml.evaluate_us_p50", "xacml.load_policy_us_p50",
				"xacmlplus.graph_us_p50", "streamql.generate_us_p50", "runtime.deploy_us_p50",
				"runtime.single_core_ops_per_s", "server.access_overhead_us", "server.alloc_bytes_per_op",
			}
			if wl != wlAccess {
				positive = append(positive, "runtime.publish_call_us_p50", "server.publish_overhead_us")
			} else {
				positive = append(positive, "runtime.withdraw_us_p50", "xacmlplus.reuse_frac")
			}
			for _, name := range positive {
				if v := rep.result.Metrics[name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestCheckOutputs pins the output check on hand-made sequences: per
// partition order, repeats, wrong values and missing tuples.
func TestCheckOutputs(t *testing.T) {
	v := speedingView()
	batches := gpsBatches(config{seed: 3}, 64)
	exp, _ := v.reference(batches)
	if len(exp) < 4 {
		t.Fatalf("reference kept only %d tuples", len(exp))
	}
	wrong := exp[0].Clone()
	wrong.Values[2] = stream.DoubleValue(wrong.Values[2].Double() + 0.5)
	cases := []struct {
		name         string
		got          []int // indexes into exp; -1 = wrong
		bad, missing int
	}{
		{"exact", seq(len(exp)), 0, 0},
		{"missing last", seq(len(exp) - 1), 0, 1},
		{"repeat", append(seq(len(exp)), len(exp)-1), 1, 0},
		{"wrong", append([]int{-1}, seq(len(exp))[1:]...), 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got []stream.Tuple
			for _, i := range c.got {
				if i < 0 {
					got = append(got, wrong)
				} else {
					got = append(got, exp[i])
				}
			}
			chk := checkOutputs(v, exp, got)
			if chk.bad != c.bad || chk.missing() != c.missing {
				t.Errorf("bad=%d missing=%d, want %d and %d", chk.bad, chk.missing(), c.bad, c.missing)
			}
		})
	}
	// Tuples of different devices may interleave in any order; tuples
	// of one device may not.
	byDevice := map[string][]int{}
	var devs []string
	for i, tu := range exp {
		d := tu.Values[1].Str()
		if byDevice[d] == nil {
			devs = append(devs, d)
		}
		byDevice[d] = append(byDevice[d], i)
	}
	var interleaved []stream.Tuple
	for k := len(devs) - 1; k >= 0; k-- {
		for _, i := range byDevice[devs[k]] {
			interleaved = append(interleaved, exp[i])
		}
	}
	if chk := checkOutputs(v, exp, interleaved); chk.bad != 0 || chk.missing() != 0 {
		t.Errorf("devices in reverse order: bad=%d missing=%d, want 0 and 0", chk.bad, chk.missing())
	}
	for _, idx := range byDevice {
		if len(idx) < 2 {
			continue
		}
		swapped := append([]stream.Tuple(nil), exp...)
		swapped[idx[0]], swapped[idx[1]] = swapped[idx[1]], swapped[idx[0]]
		if chk := checkOutputs(v, exp, swapped); chk.bad == 0 {
			t.Error("two tuples of one device swapped: bad=0")
		}
		break
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
