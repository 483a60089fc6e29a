package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"tlc"
	"tlc/internal/xmark"
)

const (
	docName = "auction.xml"
	// shards and maxConcurrent are fixed so that no number depends on
	// the core count of the machine running the benchmark.
	shards        = 4
	maxConcurrent = 2
	cacheSize     = 128
	// setupReps is how many times a run sets the server up; setup_s is
	// the median.
	setupReps = 9
	// writeRate is the /update rate (updates per second) of read-write's
	// open-loop writer.
	writeRate = 50
	// probeSeconds is the length of the closed-loop write probe the
	// read-only workloads run after their query window (shorter when the
	// window is). A closed loop keeps the machine busy: an idle writer
	// waking every 20ms measured mostly the host's wake-up jitter.
	probeSeconds = 8
	// slice is the length of the slices a window is cut into. Each
	// reported latency, rate and CPU figure is the median over the
	// slices of that figure within one slice, so a burst of host noise
	// shorter than half the window does not move it.
	slice = time.Second
)

// workload is one traffic mix. Every workload runs the same phases:
// set-up, correctness preparation, a timed query window, and a write
// stream (an open-loop writer beside the window on read-write, a
// closed-loop probe after it on the read-only workloads).
type workload struct {
	name string
	// factor is the XMark scale factor of the document.
	factor float64
	// wal attaches a write-ahead log under fsync=always.
	wal bool
	// clients is the number of closed-loop /query clients.
	clients int
	// concurrentWrites runs the open-loop writer during the query window;
	// otherwise the writer runs as a probe after the window.
	concurrentWrites bool
	// universe lists every query text the workload can send with seed.
	universe func(p docParams, seed int64) []*query
	// stream returns client c's request generator over the universe.
	stream func(u []*query, p docParams, seed int64, c int) func() *query
	// warm lists the requests of the warm-up pass that ends set-up.
	warm func(u []*query, p docParams, seed int64) []*query
}

// docParams are the populations of the generated document, which the
// request generators draw literals from.
type docParams struct {
	persons, items int
}

func paramsFor(factor float64) docParams {
	sz := xmark.SizesFor(factor)
	return docParams{persons: sz.Persons, items: sz.Items}
}

// query is one distinct /query text with its expected response.
type query struct {
	// class groups latencies for pass_ms: the Fig. 15 query ID, or the
	// template name.
	class string
	text  string
	body  []byte
	// count, crc and size describe the expected "results" array of the
	// response: its length in trees, and the CRC-32C and byte length of
	// its JSON encoding.
	count int
	crc   uint32
	size  int
}

func newQuery(class, text string) *query {
	body, _ := json.Marshal(map[string]string{"query": text})
	return &query{class: class, text: text, body: body}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// expect records q's expected response from an uncached compile and run
// of its text on db: the reference every served response must equal.
func (q *query) expect(db *tlc.Database) error {
	res, err := db.Query(q.text)
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", q.class, err)
	}
	arr := encodeResults(res)
	q.count, q.crc, q.size = res.Len(), crc32.Checksum(arr, castagnoli), len(arr)
	return nil
}

// encodeResults renders a result's trees as the JSON array the service
// writes (HTML escaping off, like the server's encoder).
func encodeResults(res *tlc.Result) []byte {
	xs := make([]string, res.Len())
	for i := range xs {
		xs[i] = res.TreeXML(i)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(xs) // a []string always encodes
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

var workloads = []*workload{fig15Warm, planChurn, readWrite}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fig15Warm sends the 23 Fig. 15 queries from two clients; after the
// warm-up pass every plan comes from the cache.
var fig15Warm = &workload{
	name:    "fig15-warm",
	factor:  0.1,
	clients: 2,
	universe: func(docParams, int64) []*query {
		var u []*query
		for _, wq := range tlc.Workload() {
			u = append(u, newQuery(wq.ID, wq.Text))
		}
		return u
	},
	// Each client makes passes over the 23 queries, each pass in a fresh
	// seeded order, so which queries the two clients run side by side
	// varies instead of locking into one phase for the whole run.
	stream: func(u []*query, _ docParams, seed int64, c int) func() *query {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		var pass []int
		return func() *query {
			if len(pass) == 0 {
				pass = rng.Perm(len(u))
			}
			q := u[pass[0]]
			pass = pass[1:]
			return q
		}
	},
	warm: func(u []*query, _ docParams, _ int64) []*query { return u },
}

// Plan-churn templates. Point lookups are exact hits or compiles;
// threshold templates add containment hits, a stricter literal served by
// a cached weaker one.
const (
	tmplPerson = `FOR $p IN document("auction.xml")//person WHERE $p/@id = "person%d" RETURN $p/name`
	tmplItem   = `FOR $i IN document("auction.xml")//item WHERE $i/@id = "item%d" RETURN $i/name`
	tmplIncome = `FOR $p IN document("auction.xml")//person WHERE $p/profile/@income > %d RETURN $p/name`
	tmplPrice  = `FOR $a IN document("auction.xml")//closed_auction WHERE $a/price > %d RETURN $a/price`
)

// churnTemplate is one plan-churn query template: its literal universe
// and how a client draws from it.
type churnTemplate struct {
	class string
	text  string
	// lo, hi and step span the literal universe.
	lo, hi, step int
	// threshold templates draw from a weak hot set or a stricter fresh
	// value; point templates draw Zipf-skewed ids.
	threshold bool
}

func churnTemplates(p docParams) []churnTemplate {
	return []churnTemplate{
		{class: "person_by_id", text: tmplPerson, lo: 0, hi: 2 * p.persons, step: 1},
		{class: "item_by_id", text: tmplItem, lo: 0, hi: 2 * p.items, step: 1},
		{class: "income_over", text: tmplIncome, lo: 9000, hi: 100000, step: 250, threshold: true},
		{class: "price_over", text: tmplPrice, lo: 0, hi: 400, step: 1, threshold: true},
	}
}

var planChurn = &workload{
	name:    "plan-churn",
	factor:  0.1,
	clients: 2,
	universe: func(p docParams, _ int64) []*query {
		var u []*query
		for _, t := range churnTemplates(p) {
			for v := t.lo; v <= t.hi; v += t.step {
				u = append(u, newQuery(t.class, fmt.Sprintf(t.text, v)))
			}
		}
		return u
	},
	stream: func(u []*query, p docParams, seed int64, c int) func() *query {
		return churnStream(u, p, rand.New(rand.NewSource(seed*31+int64(c))))
	},
	warm: func(u []*query, p docParams, seed int64) []*query {
		next := churnStream(u, p, rand.New(rand.NewSource(seed*31-1)))
		out := make([]*query, cacheSize)
		for i := range out {
			out[i] = next()
		}
		return out
	},
}

// churnStream draws plan-churn requests: a template uniformly, then a
// literal. Point ids follow a Zipf law over twice the population (half
// the ids miss). A threshold is drawn from the whole range one time in
// ten; otherwise two times in five from a four-value hot set whose
// weakest value is an eighth into the range, and else uniformly from the
// stricter values above that weakest one (a containment hit while its
// plan is cached).
func churnStream(u []*query, p docParams, rng *rand.Rand) func() *query {
	ts := churnTemplates(p)
	base := make([]int, len(ts))
	zipf := make([]*rand.Zipf, len(ts))
	off := 0
	for i, t := range ts {
		base[i] = off
		n := (t.hi-t.lo)/t.step + 1
		off += n
		if !t.threshold {
			zipf[i] = rand.NewZipf(rng, 1.1, 4, uint64(n-1))
		}
	}
	return func() *query {
		i := rng.Intn(len(ts))
		t := ts[i]
		n := (t.hi-t.lo)/t.step + 1
		var k int
		switch {
		case !t.threshold:
			k = int(zipf[i].Uint64())
		case rng.Intn(10) == 0:
			k = rng.Intn(n)
		case rng.Intn(5) < 2:
			k = n/8 + rng.Intn(4)*n/16
		default:
			k = n/8 + rng.Intn(n-n/8)
		}
		return u[base[i]+k]
	}
}

var readWrite = &workload{
	name:             "read-write",
	factor:           0.5,
	wal:              true,
	clients:          1,
	concurrentWrites: true,
	// The reader's working set: eight person and eight item point
	// lookups chosen by the seed.
	universe: func(p docParams, seed int64) []*query {
		rng := rand.New(rand.NewSource(seed*31 - 2))
		u := make([]*query, 0, 16)
		for i := 0; i < 8; i++ {
			u = append(u,
				newQuery("person_by_id", fmt.Sprintf(tmplPerson, rng.Intn(p.persons))),
				newQuery("item_by_id", fmt.Sprintf(tmplItem, rng.Intn(p.items))))
		}
		return u
	},
	stream: func(u []*query, _ docParams, seed int64, c int) func() *query {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		return func() *query { return u[rng.Intn(len(u))] }
	},
	warm: func(u []*query, _ docParams, _ int64) []*query { return u },
}

// update is one /update request of the writer.
type update struct {
	req  tlc.UpdateRequest
	body []byte
}

// updatePairs returns the writer's update generator: each insert of a
// bench_note into a seeded person is followed by the delete of that same
// note, so after an even number of updates the document is back to its
// starting bytes. No query of any workload reads bench_note.
func updatePairs(p docParams, seed int64) func() update {
	rng := rand.New(rand.NewSource(seed*31 - 3))
	n := 0
	var target string
	return func() update {
		var req tlc.UpdateRequest
		if n%2 == 0 {
			target = fmt.Sprintf("/site/people/person[%d]", 1+rng.Intn(p.persons))
			req = tlc.UpdateRequest{Doc: docName, Op: tlc.UpdateInsert, Target: target,
				Fragment: fmt.Sprintf(`<bench_note seq="%d">probe %d</bench_note>`, n/2, rng.Intn(1000))}
		} else {
			req = tlc.UpdateRequest{Doc: docName, Op: tlc.UpdateDelete, Target: target + "/bench_note[1]"}
		}
		n++
		body, _ := json.Marshal(map[string]string{
			"doc": req.Doc, "op": req.Op.String(), "target": req.Target, "fragment": req.Fragment,
		})
		return update{req: req, body: body}
	}
}

// docSections are the top-level children of the XMark root; together
// their subtrees are the whole document below the (unmatchable) root.
var docSections = []string{"regions", "categories", "people", "open_auctions", "closed_auctions"}

// docDigest is the CRC-32C of the document's serialized sections, read
// through uncached queries.
func docDigest(db *tlc.Database) (uint32, error) {
	h := crc32.New(castagnoli)
	for _, s := range docSections {
		res, err := db.Query(fmt.Sprintf(`FOR $s IN document("auction.xml")/%s RETURN $s`, s))
		if err != nil {
			return 0, fmt.Errorf("document digest of %s: %w", s, err)
		}
		if res.Len() != 1 {
			return 0, fmt.Errorf("document digest of %s: %d trees", s, res.Len())
		}
		h.Write([]byte(res.XML()))
	}
	return h.Sum32(), nil
}
