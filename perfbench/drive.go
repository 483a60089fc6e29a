package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"tlc"
	"tlc/internal/service"
)

// server is one set-up instance: the database, its WAL directory and the
// service handler every request goes through.
type server struct {
	db     *tlc.Database
	h      http.Handler
	walDir string
}

func (s *server) close() {
	_ = s.db.Close() // the run is over; nothing to report
	if s.walDir != "" {
		_ = os.RemoveAll(s.walDir) // scratch directory under the run's output dir
	}
}

// newServer loads the document into a fresh database, attaches the WAL
// when the workload asks for one, builds the service and sends the
// warm-up requests. Every request is checked for a 200.
func newServer(w *workload, xml string, warm []*query, tmp string) (*server, error) {
	db := tlc.Open(tlc.WithShards(shards))
	s := &server{db: db}
	if err := db.LoadXMLString(docName, xml); err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	if w.wal {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			s.close()
			return nil, err
		}
		s.walDir = dir
		if _, err := db.AttachWAL(tlc.WALOptions{Dir: dir, Fsync: "always"}); err != nil {
			s.close()
			return nil, fmt.Errorf("attach WAL: %w", err)
		}
	}
	srv, err := service.New(service.Config{DB: db, MaxConcurrent: maxConcurrent, CacheSize: cacheSize, Parallelism: 1})
	if err != nil {
		s.close()
		return nil, err
	}
	s.h = srv.Handler()
	var rec recorder
	for _, q := range warm {
		if s.post("/query", q.body, &rec); rec.status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d: %s", q.class, rec.status, rec.buf.Bytes())
		}
	}
	return s, nil
}

// recorder is a reusable http.ResponseWriter for in-process requests.
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = make(http.Header)
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.buf.Write(p)
}

// post sends one request through the service handler into rec.
func (s *server) post(path string, body []byte, rec *recorder) {
	clear(rec.hdr)
	rec.status = 0
	rec.buf.Reset()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // a constant path and an in-memory body cannot fail
	}
	s.h.ServeHTTP(rec, req)
}

var (
	resultsKey = []byte(`"results":`)
	countKey   = []byte(`"count":`)
	cacheKey   = []byte(`,"cache_hit":`)
)

// checkQuery verifies a /query response against q's expected results.
func checkQuery(q *query, rec *recorder) error {
	if rec.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", q.class, rec.status, rec.buf.Bytes())
	}
	return checkBody(q, rec.buf.Bytes())
}

// checkBody verifies an encoded query response: its count, and the
// CRC-32C and length of its results array.
func checkBody(q *query, body []byte) error {
	i := bytes.Index(body, resultsKey)
	j := bytes.LastIndex(body, cacheKey)
	c := bytes.Index(body, countKey)
	if i < 0 || j < i || c < 0 || c > i {
		return fmt.Errorf("%s: malformed response: %.200s", q.class, body)
	}
	n, err := strconv.Atoi(string(bytes.TrimSuffix(body[c+len(countKey):i], []byte(","))))
	if err != nil || n != q.count {
		return fmt.Errorf("%s: count %q, want %d", q.class, body[c+len(countKey):i], q.count)
	}
	arr := body[i+len(resultsKey) : j]
	if len(arr) != q.size || crc32.Checksum(arr, castagnoli) != q.crc {
		return fmt.Errorf("%s: results differ from the uncached reference (%d bytes, want %d)", q.class, len(arr), q.size)
	}
	return nil
}

// sample is one completed request: its class, its latency, and when it
// completed, as an offset from the start of its window.
type sample struct {
	class string
	lat   time.Duration
	at    time.Duration
}

// clientResult is what the closed-loop clients of one window did.
type clientResult struct {
	samples  []sample
	failed   int
	firstErr error
}

// runClients runs the workload's closed-loop clients from start until d
// has passed: each sends its next request only after the previous one
// completed.
func runClients(s *server, w *workload, u []*query, p docParams, seed int64, start time.Time, d time.Duration) clientResult {
	var (
		mu  sync.Mutex
		res clientResult
		wg  sync.WaitGroup
	)
	end := start.Add(d)
	for c := 0; c < w.clients; c++ {
		next := w.stream(u, p, seed, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec recorder
			var local []sample
			failed := 0
			var firstErr error
			for time.Now().Before(end) {
				q := next()
				t0 := time.Now()
				s.post("/query", q.body, &rec)
				lat := time.Since(t0)
				if err := checkQuery(q, &rec); err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				local = append(local, sample{q.class, lat, time.Since(start)})
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// writerResult is what the open-loop writer did.
type writerResult struct {
	// samples time each acknowledged update from its due time.
	samples  []sample
	late     []float64 // ms each update was sent after its due time
	acked    int
	failed   int
	firstErr error
}

// runWriter sends updates from start for d. With a rate (updates per
// second) it is an open loop, whatever the responses take: update i is
// due at start + i/rate and is sent then or, if the writer is behind, as
// soon as the previous one returns. With rate 0 it is a closed loop:
// each update is due when the previous one returned. It stops on a pair
// boundary, so the document ends as it began.
func runWriter(s *server, next func() update, rate float64, start time.Time, d time.Duration) writerResult {
	var res writerResult
	var rec recorder
	for i := 0; ; i++ {
		due := time.Now()
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		}
		if i%2 == 0 && due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.late = append(res.late, ms(time.Since(due)))
		u := next()
		s.post("/update", u.body, &rec)
		lat := time.Since(due)
		if rec.status != http.StatusOK {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("update %s %s: status %d: %.200s", u.req.Op, u.req.Target, rec.status, rec.buf.Bytes())
			}
			continue
		}
		res.acked++
		res.samples = append(res.samples, sample{"update", lat, time.Since(start)})
	}
	return res
}

// window is one measured stretch of a workload.
type window struct {
	clients clientResult
	writer  writerResult
	marks
}

// marks are readings taken at every slice boundary of a window: the
// process CPU time and the host CPU counters, at the start of each slice
// and at the end of the last one.
type marks struct {
	cpu  []time.Duration
	host []hostCPU
}

// mark takes the readings for the slices of [start, start+d) at their
// boundaries; run it on its own goroutine beside the measured work.
func (m *marks) mark(start time.Time, d time.Duration) {
	for i := 0; i <= int(d/slice); i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		m.cpu = append(m.cpu, cpuTime())
		m.host = append(m.host, readHostCPU())
	}
}

// calm reports which slices had at most the median host steal share:
// the calmer half, which the metrics are computed over, so that seconds
// in which the hypervisor took the CPUs away do not set them.
func (m *marks) calm() []bool {
	n := len(m.host) - 1
	steal := make([]float64, n)
	for i := range steal {
		steal[i] = stealShare(m.host[i], m.host[i+1])
	}
	limit := median(steal)
	out := make([]bool, n)
	for i, st := range steal {
		out[i] = st <= limit
	}
	return out
}

// runWindow runs the workload's clients for d and, on a workload with
// concurrent writes, the open-loop writer beside them, taking the slice
// marks.
func runWindow(s *server, w *workload, u []*query, p docParams, seed int64, d time.Duration, next func() update) window {
	var win window
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		win.mark(start, d)
	}()
	if w.concurrentWrites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.writer = runWriter(s, next, writeRate, start, d)
		}()
	}
	win.clients = runClients(s, w, u, p, seed, start, d)
	wg.Wait()
	return win
}

// runProbe runs the closed-loop write probe for d, taking the slice
// marks.
func runProbe(s *server, next func() update, d time.Duration) (writerResult, marks) {
	var m marks
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		m.mark(start, d)
	}()
	wr := runWriter(s, next, 0, start, d)
	<-done
	return wr, m
}

// bySlice groups samples by the slice they completed in, dropping those
// past the last whole slice of d.
func bySlice(samples []sample, d time.Duration) [][]sample {
	out := make([][]sample, int(d/slice))
	for _, sm := range samples {
		if i := int(sm.at / slice); i < len(out) {
			out[i] = append(out[i], sm)
		}
	}
	return out
}

// runDir makes a fresh scratch directory for one run under out/tmp.
func runDir(out string) (string, error) {
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, "run-")
}
