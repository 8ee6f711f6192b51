package main

import (
	"fmt"
)

// perLayerUnits lists every per-layer metric a traced run prints, with
// its unit; BENCHMARK.json's per_layer list matches it.
var perLayerUnits = map[string]string{
	"protocol.publish_bytes_per_tuple":     "B",
	"protocol.publish_encode_ns_per_tuple": "ns",
	"protocol.publish_decode_ns_per_tuple": "ns",
	"protocol.push_bytes_per_tuple":        "B",
	"protocol.push_encode_ns_per_tuple":    "ns",
	"protocol.push_decode_ns_per_tuple":    "ns",
	"server.publish_overhead_us":           "us",
	"server.access_overhead_us":            "us",
	"server.alloc_bytes_per_op":            "B",
	"runtime.publish_call_us_p50":          "us",
	"runtime.queue_depth_max":              "count",
	"runtime.sub_dropped":                  "count",
	"runtime.deploy_us_p50":                "us",
	"runtime.withdraw_us_p50":              "us",
	"runtime.single_core_ops_per_s":        "1/s",
	"dsms.grant_ns_per_tuple":              "ns",
	"xacml.evaluate_us_p50":                "us",
	"xacml.load_policy_us_p50":             "us",
	"xacmlplus.graph_us_p50":               "us",
	"xacmlplus.reuse_frac":                 "ratio",
	"streamql.generate_us_p50":             "us",
	"trace.overhead_frac":                  "ratio",
}

// runTraced is a traced run: an untraced pass of the workload, a pass
// against a traced server (timing wrappers around its runtime and
// engine, queue-depth sampling), a pass with the server at
// GOMAXPROCS=1, and the in-process layer replays (layers.go). A figure
// a workload never exercises (say, publish calls under access) reads 0.
// Every pass checks its outputs as an untraced run does.
func runTraced(cfg config) (report, error) {
	// A traced run reports no set-up time, so each pass sets up once;
	// its three passes share the run's length.
	cfg.setups = 1
	cfg.run /= 2
	plain, err := runPass(cfg, cfg.workload, passOpts{})
	if err != nil {
		return report{}, err
	}
	traced, err := runPass(cfg, cfg.workload, passOpts{traced: true})
	if err != nil {
		return report{}, err
	}
	one, err := runPass(cfg, cfg.workload, passOpts{singleCore: true})
	if err != nil {
		return report{}, err
	}
	if one.sut.GOMAXPROCS != 1 {
		return report{}, fmt.Errorf("single-core pass ran the server at GOMAXPROCS=%d", one.sut.GOMAXPROCS)
	}
	layers, err := replayLayers(cfg)
	if err != nil {
		return report{}, err
	}

	sr := traced.sut
	layers["server.publish_overhead_us"] = 0
	if sr.PublishCalls > 0 {
		layers["server.publish_overhead_us"] = traced.publishP50 - sr.PublishCallP50
	}
	layers["server.access_overhead_us"] = median(traced.access.overhead)
	layers["server.alloc_bytes_per_op"] = plain.allocPerOp
	layers["runtime.publish_call_us_p50"] = sr.PublishCallP50
	layers["runtime.queue_depth_max"] = float64(sr.QueueDepthMax)
	layers["runtime.sub_dropped"] = float64(sr.SubDropped)
	layers["runtime.deploy_us_p50"] = sr.DeployP50
	layers["runtime.withdraw_us_p50"] = sr.WithdrawP50
	layers["runtime.single_core_ops_per_s"] = one.throughput
	layers["xacmlplus.reuse_frac"] = traced.access.reuseFrac()
	layers["trace.overhead_frac"] = overheadFrac(cfg.workload, plain, traced)

	metrics := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		v, ok := layers[name]
		if !ok {
			return report{}, fmt.Errorf("traced run produced no %s", name)
		}
		metrics[name] = metric{v, unit}
	}
	res := result{Correct: true, Metrics: metrics}
	var notes []string
	for _, p := range []passResult{plain, traced, one} {
		res.Correct = res.Correct && p.correct()
		res.Attempted += p.attempted
		res.Failed += p.failed
		notes = append(notes, p.notes...)
	}
	var named []namedValue
	for _, n := range endToEnd(plain) {
		named = append(named, namedValue{"untraced." + n.Name, n.Value, n.Unit})
	}
	for _, n := range endToEnd(traced) {
		named = append(named, namedValue{"traced." + n.Name, n.Value, n.Unit})
	}
	return report{result: res, named: named, notes: notes}, nil
}

// overheadFrac is how much the traced pass's headline median is worse
// than the untraced pass's: throughput for ingest, median latency for
// deliver and access.
func overheadFrac(wl string, plain, traced passResult) float64 {
	if wl == wlIngest {
		if traced.throughput == 0 {
			return 0
		}
		return plain.throughput/traced.throughput - 1
	}
	if plain.latP50 == 0 {
		return 0
	}
	return traced.latP50/plain.latP50 - 1
}
