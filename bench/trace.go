package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The traced pass records a span around every call the harness makes into
// a layer: name, start, end, the span that contains it in the layer
// composition, and a request id shared by the spans of one replayed
// request. Spans live in a preallocated array (one atomic add to claim a
// slot, no locks, no allocation) and are written out when the run ends.
//
// All spans are recorded from the benchmark's own files, around calls into
// each layer's entry point; the layers below a root span are measured by
// replaying the same generated request through them on their own, so a
// child span is caused by its parent in the composition, not nested inside
// it in time. Self times are computed per request id (see stats).

// layer ids index layerNames.
const (
	spServeFlowReport = iota
	spUDPEcho
	spCodec
	spAppReport
	spClientAct
	spActBatch
	spOnlineAdapt
	spAdapterStep
	spCollect
	spUpdate
	spScenarioRun
	spCompile
	spEngineRun
	spParse
	numLayers
)

var layerNames = [numLayers]string{
	"transport.ServeFlow.Report",
	"transport.udp_echo",
	"datapath.codec",
	"mocc.App.Report",
	"serve.Client.Act",
	"core.BatchInference.ActBatch",
	"mocc.Library.OnlineAdapt",
	"core.Adapter.Step",
	"rl.Collect",
	"rl.PPO.UpdateMulti",
	"scenario.Run",
	"scenario.Compile",
	"engine.Run",
	"scenario.Parse",
}

// layerParent is the composition: which layer's span contains each layer.
var layerParent = [numLayers]int{
	spServeFlowReport: -1,
	spUDPEcho:         spServeFlowReport,
	spCodec:           spServeFlowReport,
	spAppReport:       spServeFlowReport,
	spClientAct:       spAppReport,
	spActBatch:        spClientAct,
	spOnlineAdapt:     -1,
	spAdapterStep:     spOnlineAdapt,
	spCollect:         spAdapterStep,
	spUpdate:          spAdapterStep,
	spScenarioRun:     -1,
	spCompile:         spScenarioRun,
	spEngineRun:       spScenarioRun,
	spParse:           -1,
}

type span struct {
	start, end int64 // ns since tracer base
	parent     int32 // span index, -1 for a root (resolved by link)
	req        int32
	layer      uint8
}

// maxSpans bounds the in-memory trace (32 MB, touched only as far as it
// fills); later spans are counted as dropped. maxProbeSpans bounds each
// single-goroutine layer replay, whose calls can take well under a
// microsecond.
const (
	maxSpans      = 1 << 20
	maxProbeSpans = 1 << 14
)

type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxSpans)}
}

// add records one finished span of request req. Safe for concurrent use.
func (t *tracer) add(layer int, start, end time.Time, req int32) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{
		start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)),
		parent: -1, req: req, layer: uint8(layer),
	}
}

func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// link resolves every span's parent: the span of the containing layer
// that carries the same request id.
func (t *tracer) link() {
	type key struct {
		layer uint8
		req   int32
	}
	spans := t.recorded()
	first := make(map[key]int32, len(spans))
	for i, s := range spans {
		k := key{s.layer, s.req}
		if _, ok := first[k]; !ok {
			first[k] = int32(i)
		}
	}
	for i := range spans {
		if p := layerParent[spans[i].layer]; p >= 0 {
			if idx, ok := first[key{uint8(p), spans[i].req}]; ok {
				spans[i].parent = idx
			}
		}
	}
}

// layerStat is one layer's aggregate over its spans.
type layerStat struct {
	count    int
	medianUs float64
	p99Us    float64
	selfUs   float64
}

// stats aggregates spans per layer. A layer without children is summarized
// over all its spans and is all self time. A layer with children is
// summarized over the requests its children were recorded for as well —
// the same rounds of a serial replay, the same stretch of a concurrent one —
// and its self time is the median over those requests of the span minus
// its child spans, floored at 0.
func (t *tracer) stats() [numLayers]layerStat {
	var byReq [numLayers]map[int32]float64
	var all [numLayers][]float64
	for l := range byReq {
		byReq[l] = make(map[int32]float64)
	}
	for _, s := range t.recorded() {
		us := float64(s.end-s.start) / 1e3
		all[s.layer] = append(all[s.layer], us)
		if _, seen := byReq[s.layer][s.req]; !seen {
			byReq[s.layer][s.req] = us
		}
	}
	var out [numLayers]layerStat
	for l := range out {
		var children []int
		for c, p := range layerParent {
			if p == l && len(all[c]) > 0 {
				children = append(children, c)
			}
		}
		durs, self := all[l], all[l]
		if len(children) > 0 {
			durs, self = nil, nil
			for req, us := range byReq[l] {
				rest, paired := us, true
				for _, c := range children {
					child, ok := byReq[c][req]
					rest -= child
					paired = paired && ok
				}
				if paired {
					durs = append(durs, us)
					self = append(self, math.Max(0, rest))
				}
			}
			if len(durs) == 0 { // children ran, but never for the same requests
				durs, self = all[l], nil
			}
		}
		sort.Float64s(durs)
		sort.Float64s(self)
		out[l] = layerStat{
			count:    len(durs),
			medianUs: quantile(durs, 0.5),
			p99Us:    quantile(durs, 0.99),
			selfUs:   quantile(self, 0.5),
		}
	}
	return out
}

// maxSpansWrittenPerLayer caps the trace file at the first spans of each
// layer; the layer table in it is always computed over every recorded span.
const maxSpansWrittenPerLayer = 4096

// write dumps the trace as JSON: run identity, per-layer table, spans.
func (t *tracer) write(path, workload string, seed int64, ctx string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.link()
	spans := t.recorded()
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"context\":%q,\"spans_recorded\":%d,\"spans_dropped\":%d,\n\"layers\":[",
		workload, seed, ctx, len(spans), t.dropped.Load())
	first := true
	for l, st := range t.stats() {
		if st.count == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		parent := ""
		if p := layerParent[l]; p >= 0 {
			parent = layerNames[p]
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"parent\":%q,\"count\":%d,\"median_us\":%.3f,\"p99_us\":%.3f,\"self_us\":%.3f}",
			layerNames[l], parent, st.count, st.medianUs, st.p99Us, st.selfUs)
	}
	w.WriteString("],\n\"spans\":[")
	var buf []byte
	var written [numLayers]int
	first = true
	for i, s := range spans {
		if written[s.layer]++; written[s.layer] > maxSpansWrittenPerLayer {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		buf = append(buf[:0], "\n{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"name\":\""...)
		buf = append(buf, layerNames[s.layer]...)
		buf = append(buf, "\",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ",\"req\":"...)
		buf = strconv.AppendInt(buf, int64(s.req), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
