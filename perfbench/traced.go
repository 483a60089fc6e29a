package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"path/filepath"
	"time"

	"tlc"
	"tlc/internal/plancache"
	"tlc/internal/store"
)

// planCacheStats reads the service's plan-cache counters from /varz.
func planCacheStats(s *server) (plancache.Stats, error) {
	req, err := http.NewRequest(http.MethodGet, "/varz", nil)
	if err != nil {
		return plancache.Stats{}, err
	}
	var rec recorder
	s.h.ServeHTTP(&rec, req)
	var v struct {
		PlanCache plancache.Stats `json:"plan_cache"`
	}
	if err := json.Unmarshal(rec.buf.Bytes(), &v); err != nil {
		return plancache.Stats{}, fmt.Errorf("/varz: %w", err)
	}
	return v.PlanCache, nil
}

// storeDigest is the CRC-32C of the store's serialized document.
func storeDigest(st *store.Store) uint32 {
	id, _ := st.Lookup(docName)
	return crc32.Checksum([]byte(st.Doc(id).XML(0)), castagnoli)
}

// Traced-pass lengths: fig15-warm repeats the 23 queries; the others
// take a fixed prefix of client 0's request stream, and read-write sends
// one update after every updateEvery queries.
const (
	fig15TraceReps  = 5
	streamTraceLen  = 1500
	rwTraceLen      = 600
	updateEvery     = 6
	minTracedWindow = 2 * time.Second
)

// runTraced produces the per-layer metrics. It first runs the workload
// untraced for half the run length, with its real clients and writer,
// for the plan-cache, runtime and writer metrics; then it sends a fixed
// request list serially, each request once through the handler and once
// through the traced pipeline, for the layer times and the tracing
// overhead.
func runTraced(rep *report, o options, s *server, in *inputs, u []*query, digest uint32, dir string) (*outcome, error) {
	w, p := o.workload, in.params
	res := &outcome{Metrics: rep.metrics}

	d := time.Duration(o.seconds) * time.Second / 2
	if d < minTracedWindow {
		d = minTracedWindow
	}
	pc0, err := planCacheStats(s)
	if err != nil {
		return nil, err
	}
	h0, rt0, conf0 := readHostCPU(), readRuntime(), tlc.UpdateCounters().Conflicts
	win := runWindow(s, w, u, p, o.seed, d, updatePairs(p, o.seed))
	cr, wr := win.clients, win.writer
	rt1, steal := readRuntime(), stealShare(h0, readHostCPU())
	versionsLive := s.db.VersionsLive()
	conflicts := tlc.UpdateCounters().Conflicts - conf0
	pc1, err := planCacheStats(s)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(cr.samples) + cr.failed + wr.acked + wr.failed
	res.Failed += cr.failed + wr.failed
	for _, err := range []error{cr.firstErr, wr.firstErr} {
		if err != nil {
			fmt.Fprintf(rep.w, "# FAILED: %v\n", err)
		}
	}
	windowOps := len(cr.samples) + wr.acked

	// The traced pass.
	stDigest := storeDigest(in.st)
	tp, err := newTracePass(s, in.st, dir)
	if err != nil {
		return nil, err
	}
	defer tp.close()
	var steps []*query // nil marks an update
	if w == fig15Warm {
		for r := 0; r < fig15TraceReps; r++ {
			steps = append(steps, u...)
		}
	} else {
		next, n := w.stream(u, p, o.seed, 0), streamTraceLen
		if w.concurrentWrites {
			n = rwTraceLen
		}
		for i := 0; i < n; i++ {
			steps = append(steps, next())
			if w.concurrentWrites && i%updateEvery == updateEvery-1 {
				steps = append(steps, nil)
			}
		}
	}
	nextUpdate := updatePairs(p, o.seed+1)
	var traceErr error
	for i := 0; i < len(steps) || tp.updates%2 == 1; i++ {
		var err error
		if i >= len(steps) || steps[i] == nil {
			err = tp.update(nextUpdate())
		} else {
			err = tp.query(steps[i])
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			if traceErr == nil {
				traceErr = err
				fmt.Fprintf(rep.w, "# FAILED: %v\n", err)
			}
		}
	}
	gateErr := endGates(s, digest, wr.acked+tp.updates)
	if gateErr == nil && storeDigest(in.st) != stDigest {
		gateErr = fmt.Errorf("the traced updates left the benchmark's store changed")
	}
	if gateErr != nil {
		fmt.Fprintf(rep.w, "# FAILED: %v\n", gateErr)
	}
	res.Correct = res.Failed == 0 && gateErr == nil
	if tp.queries == 0 {
		return nil, fmt.Errorf("traced pass completed no query: %v", traceErr)
	}
	spanFile := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := tp.tr.write(spanFile); err != nil {
		return nil, err
	}

	fmt.Fprintf(rep.w, "# env steal_share=%.4f seed=%d\n", steal, o.seed)
	self := tp.layerTimes()
	total := map[string]time.Duration{}
	for _, sp := range tp.tr.spans {
		total[sp.Name] += sp.dur()
	}
	div := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	nq, nu, nc := tp.queries, tp.updates, tp.compiles
	perQuery := func(name string) float64 { return div(us(self[name]), nq) }

	rep.set("service.decode_us", perQuery("service.decode"), "us")
	rep.set("service.footprint_us", perQuery("service.footprint"), "us")
	rep.set("service.encode_us", perQuery("service.encode"), "us")
	rep.set("service.response_bytes", div(float64(tp.respBytes), nq), "bytes")

	lookups := (pc1.Hits + pc1.Misses) - (pc0.Hits + pc0.Misses)
	perLookup := func(n uint64) float64 { return div(float64(n), int(lookups)) }
	if tp.hits > 0 {
		rep.set("plancache.lookup_us", div(us(tp.hitLookup), tp.hits), "us")
	} else {
		rep.set("plancache.lookup_us", perQuery("plancache.lookup"), "us")
	}
	rep.set("plancache.hit_exact_ratio", perLookup(pc1.HitsExact-pc0.HitsExact), "ratio")
	rep.set("plancache.hit_containment_ratio", perLookup(pc1.HitsContainment-pc0.HitsContainment), "ratio")
	rep.set("plancache.miss_ratio", perLookup(pc1.Misses-pc0.Misses), "ratio")
	rep.set("plancache.containment_yield", div(float64(pc1.HitsContainment-pc0.HitsContainment), int(pc1.ContainmentProbes-pc0.ContainmentProbes)), "ratio")
	rep.set("plancache.evictions_per_kop", 1000*perLookup(pc1.Evictions-pc0.Evictions), "1/kop")
	rep.set("plancache.invalidations_per_kop", 1000*perLookup(pc1.Invalidations-pc0.Invalidations), "1/kop")

	rep.set("xquery.parse_us", div(us(self["xquery.parse"]), nc), "us")
	rep.set("translate.translate_us", div(us(self["translate.translate"]), nc), "us")
	rep.set("planner.plan_us", div(us(self["planner.plan"]), nc), "us")
	rep.set("tlc.compile_us", div(us(total["tlc.compile"]), nc), "us")

	rep.set("tlc.eval_us", div(us(total["tlc.eval"]), nq), "us")
	for _, k := range opKinds {
		rep.set(k+"_us", perQuery(k), "us")
	}
	rep.set("seq.serialize_us", perQuery("seq.serialize"), "us")
	rep.set("seq.arena_nodes", div(float64(tp.arenaNodes), nq), "count")

	sd := tp.storeDelta
	rep.set("store.tag_lookups", div(float64(sd.TagLookups), nq), "count")
	rep.set("store.tag_refs", div(float64(sd.TagRefs), nq), "count")
	rep.set("store.value_lookups", div(float64(sd.ValueLookups), nq), "count")
	rep.set("store.nodes_read", div(float64(sd.NodesRead), nq), "count")
	rep.set("store.nodes_materialized", div(float64(sd.NodesMaterialized), nq), "count")
	rep.set("store.versions_live", float64(versionsLive), "count")

	ws := tp.log.Stats()
	rep.set("mutate.apply_us", div(us(self["mutate.apply"]), nu), "us")
	rep.set("mutate.alloc_kb", div(float64(tp.allocBytes)/1024, nu), "KB")
	rep.set("mutate.conflicts", float64(conflicts)+float64(tp.conflicts), "count")
	rep.set("wal.append_us", div(us(total["wal.append"]), nu), "us")
	rep.set("wal.bytes_per_update", div(float64(ws.Bytes), nu), "bytes")
	rep.set("wal.syncs_per_update", div(float64(ws.Synced), nu), "count")

	gcShare := 0.0
	if busy := rt1.busyCPU - rt0.busyCPU; busy > 0 {
		gcShare = (rt1.gcCPU - rt0.gcCPU) / busy
	}
	rep.set("runtime.gc_cpu_share", gcShare, "ratio")
	rep.set("runtime.alloc_kb_per_op", div(float64(rt1.allocBytes-rt0.allocBytes)/1024, windowOps), "KB")
	rep.set("bench.writer_late_ms", quantile(wr.late, 0.9), "ms")
	rep.set("bench.steal_share", steal, "ratio")
	rep.set("bench.trace_overhead_pct", 100*(float64(tp.traced)-float64(tp.untraced))/float64(tp.untraced), "%")

	// Every request's span self times add up to its traced time; the
	// request span's own self time is the time no layer call covers.
	var sum time.Duration
	for _, name := range requestLayers {
		sum += self[name]
	}
	rep.note("bench.unattributed_pct", 100*float64(self["request"])/float64(tp.traced), "%",
		fmt.Sprintf("(request time outside layer spans; layer self times sum to %.3f ms of %.3f ms traced)", ms(sum), ms(tp.traced)))
	fmt.Fprintf(rep.w, "# traced pass: %d queries, %d updates, %d cold compiles, %d spans in %s\n",
		nq, nu, nc, len(tp.tr.spans), spanFile)
	return res, nil
}

// requestLayers are the span names below a traced query's request span.
var requestLayers = append([]string{"service.decode", "service.footprint", "plancache.lookup", "tlc.eval",
	"seq.serialize", "service.encode"}, opKinds...)
