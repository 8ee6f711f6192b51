package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/dsms"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/streamql"
	"repro/internal/workload"
	"repro/internal/xacml"
	"repro/internal/xacmlplus"
)

// Replays of single layers on the workloads' seeded inputs, run in the
// benchmark process by traced runs. Each times calls into one layer's
// public functions; nothing inside the program is instrumented.

// replayRounds is how often each tuple replay repeats; figures are
// medians over rounds (or over batches within them).
const replayRounds = 5

// replayBatches is how many of a workload's batches a replay uses.
const replayBatches = 64

// codecFigures are a codec replay's per-tuple medians.
type codecFigures struct{ bytes, encNs, decNs float64 }

// replayPublishCodec frames PublishReq batches as the client does
// (protocol.Encode + WriteFrame) and parses them as the server does
// (ReadFrame + Decode[server.PublishReq]).
func replayPublishCodec(streamName string, bs [][]stream.Tuple) (codecFigures, error) {
	var buf bytes.Buffer
	var enc, dec, size []float64
	for r := 0; r < replayRounds; r++ {
		for i, b := range bs {
			n := float64(len(b))
			buf.Reset()
			t := time.Now()
			m, err := protocol.Encode(server.MsgPublish, uint64(i+1), server.PublishReq{Stream: streamName, Tuples: b})
			if err == nil {
				err = protocol.WriteFrame(&buf, m)
			}
			e := time.Since(t)
			if err != nil {
				return codecFigures{}, err
			}
			t = time.Now()
			m2, err := protocol.ReadFrame(bytes.NewReader(buf.Bytes()))
			var req server.PublishReq
			if err == nil {
				req, err = protocol.Decode[server.PublishReq](m2)
			}
			d := time.Since(t)
			if err != nil {
				return codecFigures{}, err
			}
			if len(req.Tuples) != len(b) {
				return codecFigures{}, fmt.Errorf("publish codec round trip: %d of %d tuples", len(req.Tuples), len(b))
			}
			enc = append(enc, float64(e.Nanoseconds())/n)
			dec = append(dec, float64(d.Nanoseconds())/n)
			size = append(size, float64(buf.Len())/n)
		}
	}
	return codecFigures{median(size), median(enc), median(dec)}, nil
}

// replayPushCodec frames tuples as the server's subscription push does
// (one MsgStreamTuple frame each) and decodes them as the client does.
func replayPushCodec(ts []stream.Tuple) (codecFigures, error) {
	var buf bytes.Buffer
	var enc, dec, size []float64
	for r := 0; r < replayRounds; r++ {
		buf.Reset()
		t := time.Now()
		for _, tu := range ts {
			m, err := protocol.Encode(server.MsgStreamTuple, 1, tu)
			if err == nil {
				err = protocol.WriteFrame(&buf, m)
			}
			if err != nil {
				return codecFigures{}, err
			}
		}
		e := time.Since(t)
		total := buf.Len()
		rd := bytes.NewReader(buf.Bytes())
		t = time.Now()
		for range ts {
			m, err := protocol.ReadFrame(rd)
			if err == nil {
				_, err = protocol.Decode[stream.Tuple](m)
			}
			if err != nil {
				return codecFigures{}, err
			}
		}
		d := time.Since(t)
		n := float64(len(ts))
		enc = append(enc, float64(e.Nanoseconds())/n)
		dec = append(dec, float64(d.Nanoseconds())/n)
		size = append(size, float64(total)/n)
	}
	return codecFigures{median(size), median(enc), median(dec)}, nil
}

// replayEngine times a fresh in-process dsms.Engine running g over the
// batches (CreateStream, Deploy, IngestBatch each, Flush) and returns
// the median ns per tuple over the rounds.
func replayEngine(g *dsms.QueryGraph, schema *stream.Schema, bs [][]stream.Tuple) (float64, error) {
	tuples := 0
	for _, b := range bs {
		tuples += len(b)
	}
	var per []float64
	for r := 0; r < replayRounds; r++ {
		// The engine may take ownership of ingested slices: give each
		// round its own copies, made outside the timed region.
		in := make([][]stream.Tuple, len(bs))
		for i, b := range bs {
			in[i] = make([]stream.Tuple, len(b))
			for j, t := range b {
				in[i][j] = t.Clone()
			}
		}
		ns, err := timeEngine(g, schema, in)
		if err != nil {
			return 0, err
		}
		per = append(per, ns/float64(tuples))
	}
	return median(per), nil
}

func timeEngine(g *dsms.QueryGraph, schema *stream.Schema, in [][]stream.Tuple) (float64, error) {
	e := dsms.NewEngine("replay")
	defer e.Close()
	start := time.Now()
	if err := e.CreateStream(g.Input, schema); err != nil {
		return 0, err
	}
	dep, err := e.Deploy(g.Clone())
	if err != nil {
		return 0, err
	}
	sub, err := e.Subscribe(dep.ID)
	if err != nil {
		return 0, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range sub.C {
		}
	}()
	for _, b := range in {
		if err := e.IngestBatch(g.Input, b); err != nil {
			return 0, err
		}
	}
	e.Flush()
	ns := float64(time.Since(start).Nanoseconds())
	if err := e.Withdraw(dep.ID); err != nil {
		return 0, err
	}
	<-drained
	return ns, nil
}

// pdpFigures are the access-path replays' medians over the Table 3
// workload, in µs.
type pdpFigures struct {
	loadUs, evalP50, graphUs, generateUs float64
}

// replayAccessPath loads the Table 3 policies into a fresh PDP
// (ParsePolicy + AddPolicy), then for the Zipf request sequence times
// PDP.Evaluate, the PEP's graph work (ObligationsToGraph,
// UserQuery.ToGraph, CheckGraphs, MergeGraphs) and
// streamql.GenerateString on the merged graph, in sequence order.
func replayAccessPath(p workload.Params) (pdpFigures, error) {
	w, err := workload.Generate(p)
	if err != nil {
		return pdpFigures{}, err
	}
	pdp := xacml.NewPDP()
	var load []float64
	for _, doc := range w.PolicyXML {
		t := time.Now()
		pol, err := xacml.ParsePolicy([]byte(doc))
		if err != nil {
			return pdpFigures{}, err
		}
		pdp.AddPolicy(pol)
		load = append(load, micros(time.Since(t)))
	}
	var eval, graph, gen []float64
	for _, idx := range w.ZipfSequence(p.NRequests, p.Seed+1) {
		item := w.Items[idx]
		req, err := xacml.ParseRequest([]byte(item.RequestXML))
		if err != nil {
			return pdpFigures{}, err
		}
		var uq *xacmlplus.UserQuery
		if item.UserQueryXML != "" {
			if uq, err = xacmlplus.ParseUserQuery([]byte(item.UserQueryXML)); err != nil {
				return pdpFigures{}, err
			}
		}

		t := time.Now()
		res, err := pdp.Evaluate(req)
		eval = append(eval, micros(time.Since(t)))
		if err != nil {
			return pdpFigures{}, err
		}
		if res.Decision != xacml.Permit {
			return pdpFigures{}, fmt.Errorf("replay: item %d not permitted", idx)
		}

		t = time.Now()
		merged, err := pepGraph(item.Resource, res.Obligations, uq)
		graph = append(graph, micros(time.Since(t)))
		if err != nil {
			return pdpFigures{}, err
		}

		t = time.Now()
		_, err = streamql.GenerateString(merged, w.Schema)
		gen = append(gen, micros(time.Since(t)))
		if err != nil {
			return pdpFigures{}, err
		}
	}
	return pdpFigures{
		loadUs:     median(load),
		evalP50:    median(eval),
		graphUs:    median(graph),
		generateUs: median(gen),
	}, nil
}

// pepGraph is the PEP's graph phase: obligations and user query to
// graphs, the NR/PR check, and the merge.
func pepGraph(streamName string, obs []xacml.Obligation, uq *xacmlplus.UserQuery) (*dsms.QueryGraph, error) {
	pg, err := xacmlplus.ObligationsToGraph(streamName, obs)
	if err != nil {
		return nil, err
	}
	var ug *dsms.QueryGraph
	if uq != nil {
		if ug, err = uq.ToGraph(); err != nil {
			return nil, err
		}
		ug.Input = streamName
	}
	if _, err := xacmlplus.CheckGraphs(pg, ug); err != nil {
		return nil, err
	}
	return xacmlplus.MergeGraphs(pg, ug)
}

// replayLayers runs every replay and returns the per-layer figures
// they give, keyed by BENCHMARK.json metric name. The tuple replays use
// the workload's own view and batches; access, which publishes none, is
// measured on ingest's.
func replayLayers(cfg config) (map[string]float64, error) {
	out := map[string]float64{}
	view, batches := speedingView(), gpsBatches(cfg, replayBatches)
	if cfg.workload == wlDeliver {
		view, batches = calmView(), weatherBatches(cfg, 16*replayBatches)
	}

	pc, err := replayPublishCodec(view.stream, batches)
	if err != nil {
		return nil, fmt.Errorf("publish codec replay: %w", err)
	}
	out["protocol.publish_bytes_per_tuple"] = pc.bytes
	out["protocol.publish_encode_ns_per_tuple"] = pc.encNs
	out["protocol.publish_decode_ns_per_tuple"] = pc.decNs

	projected, _ := view.reference(batches)
	push, err := replayPushCodec(projected)
	if err != nil {
		return nil, fmt.Errorf("push codec replay: %w", err)
	}
	out["protocol.push_bytes_per_tuple"] = push.bytes
	out["protocol.push_encode_ns_per_tuple"] = push.encNs
	out["protocol.push_decode_ns_per_tuple"] = push.decNs

	graph, err := xacmlplus.ObligationsToGraph(view.stream, view.policy().Obligations.Obligations)
	if err != nil {
		return nil, err
	}
	if out["dsms.grant_ns_per_tuple"], err = replayEngine(graph, view.schema, batches); err != nil {
		return nil, fmt.Errorf("engine replay: %w", err)
	}

	ap, err := replayAccessPath(accessParams(cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("access path replay: %w", err)
	}
	out["xacml.load_policy_us_p50"] = ap.loadUs
	out["xacml.evaluate_us_p50"] = ap.evalP50
	out["xacmlplus.graph_us_p50"] = ap.graphUs
	out["streamql.generate_us_p50"] = ap.generateUs
	return out, nil
}
