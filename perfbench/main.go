// Command perfbench is the service benchmark. It drives the query service
// in-process, through service.New(...).Handler() and ServeHTTP, with the
// workloads of workloads.go, checks every response against an uncached
// reference, and prints the end-to-end metrics (timed run, --trace 0) or
// the per-layer breakdown of a traced run (--trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with perfbench/run.sh, which builds it;
// README.md in this directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"tlc/internal/store"
	"tlc/internal/xmark"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the JSON object printed as the last line of a run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and prints each as it is set.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
	fmt.Fprintf(r.w, "# %-32s %14.4f %s\n", name, v, unit)
}

// note prints a metric the human report shows but the JSON line does not
// carry (a workload-specific alias, or a value that may be zero).
func (r *report) note(name string, v float64, unit, detail string) {
	fmt.Fprintf(r.w, "# %-32s %14.4f %s  %s\n", name, v, unit, detail)
}

type options struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig15-warm, plan-churn or read-write")
		seed    = flag.Int64("seed", 1, "workload seed: every request derives from it")
		seconds = flag.Int("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the timed run")
		out     = flag.String("out", ".bench_build", "directory for scratch files and span dumps")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload fig15-warm|plan-churn|read-write, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, err := run(os.Stdout, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// inputs are what a run derives from its seed before anything is timed.
type inputs struct {
	params docParams
	xml    string
	// st is the benchmark's own store built from the same document; the
	// traced run calls the layers that take a *store.Store on it.
	st *store.Store
}

// makeInputs generates the document. It is the XMark generator's fixed
// document for the workload's factor, the same for every seed: a
// per-seed document moved the figures by about a tenth between seeds,
// on top of the run-to-run noise. The seed drives the requests.
func makeInputs(w *workload) (*inputs, error) {
	doc := xmark.Generate(docName, w.factor)
	st := store.NewSharded(shards)
	id, err := st.Load(doc)
	if err != nil {
		return nil, fmt.Errorf("generate document: %w", err)
	}
	return &inputs{params: paramsFor(w.factor), xml: st.Doc(id).XML(0), st: st}, nil
}

// run performs one benchmark run and returns its outcome.
func run(stdout io.Writer, o options) (*outcome, error) {
	w := o.workload
	rep := &report{w: stdout, metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "# env GOMAXPROCS=%d nproc=%d go=%s cpu=%q shards=%d parallelism=1 clients=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel(), shards, w.clients)

	dir, err := runDir(o.out)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(w)
	if err != nil {
		return nil, err
	}
	u := w.universe(in.params, o.seed)
	warm := w.warm(u, in.params, o.seed)
	if !o.trace {
		in.st = nil // only the traced run uses the benchmark's own store
	}

	// Set up setupReps times and keep the last instance, so setup_s is a
	// median and work moved into set-up shows.
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var s *server
	var setups []float64
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // start each set-up from the same heap
		t0 := time.Now()
		s, err = newServer(w, in.xml, warm, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	in.xml = ""

	// Correctness references: every query's expected response from an
	// uncached compile and run, and the document's digest.
	for _, q := range u {
		if err := q.expect(s.db); err != nil {
			return nil, err
		}
	}
	digest, err := docDigest(s.db)
	if err != nil {
		return nil, err
	}

	if o.trace {
		return runTraced(rep, o, s, in, u, digest, dir)
	}
	return runTimed(rep, o, s, in.params, u, digest, setups)
}

// runTimed measures the end-to-end metrics with tracing off.
func runTimed(rep *report, o options, s *server, p docParams, u []*query, digest uint32, setups []float64) (*outcome, error) {
	w := o.workload
	d := time.Duration(o.seconds) * time.Second
	nextUpdate := updatePairs(p, o.seed)

	h0 := readHostCPU()
	win := runWindow(s, w, u, p, o.seed, d, nextUpdate)
	steal := stealShare(h0, readHostCPU())
	qf := queryStats(win, d, w.concurrentWrites)
	wr := win.writer
	uf := updateStats(wr.samples, d, win.calm())
	res := &outcome{Metrics: rep.metrics}
	res.Attempted = len(win.clients.samples) + win.clients.failed
	res.Failed = win.clients.failed
	errs := []error{win.clients.firstErr}
	// The samples are the benchmark's memory, not the program's: drop
	// them before reading the live heap.
	win, wr.samples = window{}, nil
	heap := liveHeapMB()
	if !w.concurrentWrites {
		wd := min(d, probeSeconds*time.Second)
		var m marks
		wr, m = runProbe(s, nextUpdate, wd)
		uf = updateStats(wr.samples, wd, m.calm())
	}
	res.Attempted += wr.acked + wr.failed
	res.Failed += wr.failed
	gateErr := endGates(s, digest, wr.acked)
	for _, err := range append(errs, wr.firstErr, gateErr) {
		if err != nil {
			fmt.Fprintf(rep.w, "# FAILED: %v\n", err)
		}
	}
	res.Correct = res.Failed == 0 && gateErr == nil
	if qf.slices == 0 || uf.slices == 0 {
		return nil, fmt.Errorf("no completed requests (%d query slices, %d update slices): %v", qf.slices, uf.slices, errs)
	}

	fmt.Fprintf(rep.w, "# env steal_share=%.4f seed=%d\n", steal, o.seed)
	rep.set("setup_s", median(setups), "s")
	rep.set("query_p50_ms", qf.p50, "ms")
	rep.set("query_p90_ms", qf.p90, "ms")
	rep.set("pass_ms", qf.pass, "ms")
	if w == fig15Warm {
		rep.note("fig15_pass_ms", qf.pass, "ms", "(= pass_ms: the Fig. 15 TLC column through the handler)")
	}
	rep.set("qps", qf.qps, "1/s")
	rep.set("cpu_ms_per_op", qf.cpu, "ms")
	rep.set("update_p50_ms", uf.p50, "ms")
	rep.set("update_p90_ms", uf.p90, "ms")
	rep.set("heap_mb", heap, "MB")
	rep.note("error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", "(failed / attempted; carried by the JSON fields)")
	fmt.Fprintf(rep.w, "# samples: %d queries in %d classes, medians over %d calm slices of %s; %d updates, medians over %d calm slices (%s); %d failed of %d attempted\n",
		qf.n, qf.classes, qf.slices, slice, uf.n, uf.slices, writerMode(w), res.Failed, res.Attempted)
	return res, nil
}

// queryFigures are a window's query metrics, each the median over the
// window's calm slices of that figure within one slice.
type queryFigures struct {
	p50, p90, pass, qps, cpu float64
	n, classes, slices       int
}

func queryStats(win window, d time.Duration, countUpdates bool) queryFigures {
	f := queryFigures{n: len(win.clients.samples)}
	all := map[string]bool{}
	for _, sm := range win.clients.samples {
		all[sm.class] = true
	}
	f.classes = len(all)
	var p50, p90, pass, qps, cpu []float64
	updates := bySlice(win.writer.samples, d)
	calm := win.calm()
	for i, ss := range bySlice(win.clients.samples, d) {
		if len(ss) == 0 || !calm[i] {
			continue
		}
		lats := make([]float64, len(ss))
		byClass := map[string][]float64{}
		for j, sm := range ss {
			lats[j] = ms(sm.lat)
			byClass[sm.class] = append(byClass[sm.class], lats[j])
		}
		p50 = append(p50, median(lats))
		p90 = append(p90, quantile(lats, 0.9))
		if len(byClass) == len(all) {
			var sum float64
			for _, xs := range byClass {
				sum += median(xs)
			}
			pass = append(pass, sum)
		}
		qps = append(qps, float64(len(ss))/slice.Seconds())
		ops := len(ss)
		if countUpdates {
			ops += len(updates[i])
		}
		cpu = append(cpu, ms(win.cpu[i+1]-win.cpu[i])/float64(ops))
	}
	f.slices = len(p50)
	f.p50, f.p90, f.pass, f.qps, f.cpu = median(p50), median(p90), median(pass), median(qps), median(cpu)
	return f
}

// updateFigures are the update latency metrics, medians over the calm
// slices.
type updateFigures struct {
	p50, p90  float64
	n, slices int
}

func updateStats(samples []sample, d time.Duration, calm []bool) updateFigures {
	f := updateFigures{n: len(samples)}
	var p50, p90 []float64
	for i, ss := range bySlice(samples, d) {
		if len(ss) == 0 || !calm[i] {
			continue
		}
		lats := make([]float64, len(ss))
		for j, sm := range ss {
			lats[j] = ms(sm.lat)
		}
		p50 = append(p50, median(lats))
		p90 = append(p90, quantile(lats, 0.9))
	}
	f.slices = len(p50)
	f.p50, f.p90 = median(p50), median(p90)
	return f
}

func writerMode(w *workload) string {
	if w.concurrentWrites {
		return "open loop beside the readers"
	}
	return "closed-loop probe after the window"
}

// endGates checks that the writer left the document byte-identical to
// its start and, with a WAL, that the log holds exactly the acknowledged
// updates.
func endGates(s *server, digest uint32, acked int) error {
	got, err := docDigest(s.db)
	if err != nil {
		return err
	}
	if got != digest {
		return fmt.Errorf("document changed: digest %08x, want %08x", got, digest)
	}
	if ws, _, ok := s.db.WALStats(); ok && ws.Appended != int64(acked) {
		return fmt.Errorf("WAL appended %d records for %d acknowledged updates", ws.Appended, acked)
	}
	return nil
}
