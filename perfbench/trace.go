package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tlc"
	"tlc/internal/algebra"
	"tlc/internal/mutate"
	"tlc/internal/pattern"
	"tlc/internal/plancache"
	"tlc/internal/planner"
	"tlc/internal/seq"
	"tlc/internal/store"
	"tlc/internal/translate"
	"tlc/internal/wal"
	"tlc/internal/xquery"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory. The traced pass is
// serial, so it needs no locking.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, req int64, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Req: req, ID: id, Parent: parent, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(t.epoch)) }

// selfTimes returns each span's duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opKind names the layer an evaluated operator belongs to.
func opKind(op algebra.Op) string {
	switch o := op.(type) {
	case *algebra.Select:
		if o.APT != nil && o.APT.Root != nil && o.APT.Root.Kind == pattern.TestDocRoot {
			return "physical.match"
		}
		return "physical.structjoin"
	case *algebra.StructuralJoinOp, *algebra.IdentityJoinOp:
		return "physical.structjoin"
	case *algebra.Join:
		return "physical.valuejoin"
	case *algebra.Construct:
		return "algebra.construct"
	case *algebra.Sort, *algebra.SortDocOrder:
		return "algebra.sort"
	}
	return "algebra.other"
}

var opKinds = []string{"physical.match", "physical.structjoin", "physical.valuejoin", "algebra.construct", "algebra.sort", "algebra.other"}

// queryRequest and queryResponse mirror the service's /query wire types.
type queryRequest struct {
	Query       string `json:"query"`
	Engine      string `json:"engine,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	NoPlanner   bool   `json:"no_planner,omitempty"`
	TimeoutMS   int    `json:"timeout_ms,omitempty"`
	MaxNodes    int64  `json:"max_nodes,omitempty"`
	MaxBytes    int64  `json:"max_bytes,omitempty"`
	MaxResult   int64  `json:"max_result,omitempty"`
	MaxWallMS   int    `json:"max_wall_ms,omitempty"`
}

type queryResponse struct {
	Engine    string   `json:"engine"`
	Count     int      `json:"count"`
	Results   []string `json:"results"`
	CacheHit  bool     `json:"cache_hit"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// tracePass runs requests serially, each once through the handler with
// tracing off and once through the traced pipeline: the same layer calls
// the handler makes, with a span around each.
type tracePass struct {
	tr    tracer
	s     *server
	st    *store.Store
	cache *plancache.Cache
	log   *wal.Log
	// plans holds the benchmark's own compile of each text, the plan the
	// traced pipeline evaluates with algebra.Profile.
	plans map[string]algebra.Op
	req   int64
	// walParent is the span the commit hook's wal.append span nests in.
	walParent int32
	rec       recorder

	untraced, traced time.Duration // summed query request times
	queries          int
	compiles         int
	hits             int           // traced lookups served from the cache
	hitLookup        time.Duration // summed lookup time of those hits
	respBytes        int64
	arenaNodes       int64
	storeDelta       store.Stats
	updates          int
	allocBytes       uint64
	conflicts        int
}

func newTracePass(s *server, st *store.Store, dir string) (*tracePass, error) {
	tp := &tracePass{
		tr:    tracer{epoch: time.Now()},
		s:     s,
		st:    st,
		cache: plancache.New(cacheSize),
		plans: map[string]algebra.Op{},
	}
	lg, err := wal.Open(filepath.Join(dir, "trace-wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	tp.log = lg
	st.SetCommitLog(func(seqNo uint64, payload []byte) error {
		sp := tp.tr.begin("wal.append", tp.req, tp.walParent)
		err := lg.Append(seqNo, payload)
		tp.tr.end(sp)
		return err
	})
	return tp, nil
}

func (tp *tracePass) close() {
	tp.st.SetCommitLog(nil)
	_ = tp.log.Close() // scratch log; the run's directory is removed next
}

// compile is the benchmark's cold compile of text through the compile
// layers, under its own root span.
func (tp *tracePass) compile(text string) (algebra.Op, error) {
	tp.req++
	tp.compiles++
	root := tp.tr.begin("tlc.compile", tp.req, -1)
	defer tp.tr.end(root)
	sp := tp.tr.begin("xquery.parse", tp.req, root)
	ast, err := xquery.Parse(text)
	tp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tp.tr.begin("translate.translate", tp.req, root)
	res, err := translate.TranslateOpts(ast, translate.Options{})
	tp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tp.tr.begin("planner.plan", tp.req, root)
	plan, _ := planner.Plan(res.Plan, tp.st, planner.Options{})
	tp.tr.end(sp)
	return plan, nil
}

// query sends q through the handler untraced, then through the traced
// pipeline, checking both responses.
func (tp *tracePass) query(q *query) error {
	t0 := time.Now()
	tp.s.post("/query", q.body, &tp.rec)
	tp.untraced += time.Since(t0)
	if err := checkQuery(q, &tp.rec); err != nil {
		return err
	}
	plan, ok := tp.plans[q.text]
	if !ok {
		var err error
		if plan, err = tp.compile(q.text); err != nil {
			return err
		}
		tp.plans[q.text] = plan
	}
	body, d, err := tp.tracedQuery(q.body, plan)
	if err != nil {
		return err
	}
	tp.traced += d
	tp.queries++
	tp.respBytes += int64(len(body))
	return checkBody(q, body)
}

// tracedQuery mirrors the service's /query handler, layer by layer.
func (tp *tracePass) tracedQuery(reqBody []byte, plan algebra.Op) ([]byte, time.Duration, error) {
	ctx := context.Background()
	tr, db := &tp.tr, tp.s.db
	tp.req++
	rid := tp.req
	root := tr.begin("request", rid, -1)

	sp := tr.begin("service.decode", rid, root)
	var req queryRequest
	err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}

	sp = tr.begin("service.footprint", rid, root)
	docs, err := tlc.QueryDocuments(req.Query)
	shardSet := map[int]bool{}
	for _, name := range docs {
		shardSet[db.ShardOfDocument(name)] = true
	}
	locked := make([]int, 0, len(shardSet))
	for sh := range shardSet {
		locked = append(locked, sh)
	}
	sort.Ints(locked)
	for _, sh := range locked {
		db.ShardLock(sh).RLock()
	}
	tr.end(sp)
	unlock := func() {
		for i := len(locked) - 1; i >= 0; i-- {
			db.ShardLock(locked[i]).RUnlock()
		}
	}
	if err != nil {
		unlock()
		return nil, 0, err
	}

	sp = tr.begin("plancache.lookup", rid, root)
	_, hit, err := tp.cache.Load(ctx, db, plancache.Key{Query: req.Query, Engine: tlc.TLC, Parallelism: 1})
	tr.end(sp)
	if err != nil {
		unlock()
		return nil, 0, err
	}
	if hit {
		tp.hits++
		tp.hitLookup += tr.spans[sp].dur()
	}

	pinned := tp.st.Pin()
	before := tp.st.Snapshot()
	sp = tr.begin("tlc.eval", rid, root)
	pr, err := algebra.Profile(algebra.NewContextFor(ctx, pinned, 1), plan)
	tr.end(sp)
	if err != nil {
		unlock()
		return nil, 0, err
	}
	// algebra.Profile times each operator but records no start times:
	// lay the operator spans end to end from the eval span's start, in
	// evaluation order.
	at := tr.spans[sp].Start
	for _, st := range pr.Stats {
		id := tr.begin(opKind(st.Op), rid, sp)
		tr.spans[id].Start, tr.spans[id].End = at, at+int64(st.Elapsed)
		at += int64(st.Elapsed)
	}
	tp.arenaNodes += pr.Arena.Nodes

	sp = tr.begin("seq.serialize", rid, root)
	results := make([]string, len(pr.Out))
	for i, t := range pr.Out {
		var sb strings.Builder
		seq.AppendXML(&sb, pinned, t.Root)
		results[i] = sb.String()
	}
	tr.end(sp)
	after := tp.st.Snapshot()
	tp.storeDelta.Add(store.Stats{
		TagLookups:        after.TagLookups - before.TagLookups,
		TagRefs:           after.TagRefs - before.TagRefs,
		ValueLookups:      after.ValueLookups - before.ValueLookups,
		NodesRead:         after.NodesRead - before.NodesRead,
		NodesMaterialized: after.NodesMaterialized - before.NodesMaterialized,
	})

	sp = tr.begin("service.encode", rid, root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err = enc.Encode(queryResponse{Engine: "TLC", Count: len(results), Results: results, CacheHit: hit,
		ElapsedMS: ms(time.Duration(tr.spans[sp].Start - tr.spans[root].Start))})
	tr.end(sp)
	unlock()
	tr.end(root)
	return buf.Bytes(), tr.spans[root].dur(), err
}

// update sends u through the handler, then applies it to the
// benchmark's store through the traced mutate and WAL layers.
func (tp *tracePass) update(u update) error {
	if tp.s.post("/update", u.body, &tp.rec); tp.rec.status != http.StatusOK {
		return fmt.Errorf("update %s %s: status %d: %.200s", u.req.Op, u.req.Target, tp.rec.status, tp.rec.buf.Bytes())
	}
	tp.req++
	root := tp.tr.begin("update", tp.req, -1)
	a0 := allocBytes()
	sp := tp.tr.begin("mutate.apply", tp.req, root)
	tp.walParent = sp
	res, err := mutate.Apply(context.Background(), tp.st, u.req)
	tp.tr.end(sp)
	tp.allocBytes += allocBytes() - a0
	tp.tr.end(root)
	if err != nil {
		return fmt.Errorf("traced update %s %s: %w", u.req.Op, u.req.Target, err)
	}
	tp.updates++
	tp.conflicts += res.Conflicts
	return nil
}

// layerTimes sums self time by span name.
func (tp *tracePass) layerTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range tp.tr.selfTimes() {
		out[tp.tr.spans[i].Name] += d
	}
	return out
}
