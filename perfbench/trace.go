package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analyzer"
	"repro/internal/defense"
	"repro/internal/foundry"
	"repro/internal/layout"
	"repro/internal/mem"
	"repro/internal/serve"
	"repro/internal/service"
)

// maxSpans bounds the spans a traced run keeps for its spans file;
// per-layer medians use every span.
const maxSpans = 1 << 16

// span is one timed call into a layer, recorded from the benchmark's
// own code around the call. Times are microseconds from the start of
// the traced run; a root span has Parent 0.
type span struct {
	ID     int32   `json:"id"`
	Parent int32   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// tracer keeps the traced run's spans in memory until it ends. Each
// phase may keep up to half of maxSpans; a root span decides for its
// whole tree, so a kept tree is always complete.
type tracer struct {
	origin  time.Time
	next    int32
	spans   []span
	limit   int  // kept-span limit of the current phase
	keep    bool // whether the open tree is kept
	dropped int
	durs    map[string][]float64 // every span duration by name, µs
}

type openSpan struct {
	id, parent int32
	name       string
	start      time.Time
}

// phase starts a new share of the kept-span budget.
func (t *tracer) phase() { t.limit = len(t.spans) + maxSpans/2 }

func (t *tracer) begin(name string, parent int32) openSpan {
	t.next++
	if parent == 0 {
		t.keep = len(t.spans) < t.limit
	}
	return openSpan{t.next, parent, name, time.Now()}
}

// end closes s and returns its duration in µs.
func (t *tracer) end(s openSpan) float64 {
	us := float64(time.Since(s.start)) / float64(time.Microsecond)
	t.durs[s.name] = append(t.durs[s.name], us)
	if t.keep {
		start := float64(s.start.Sub(t.origin)) / float64(time.Microsecond)
		t.spans = append(t.spans, span{s.id, s.parent, s.name, start, us})
	} else {
		t.dropped++
	}
	return us
}

// traced is the state of one traced run.
type traced struct {
	b       *bench
	tr      *tracer
	rng     *rand.Rand
	errs    io.Writer
	ops     int
	failed  int
	metrics map[string]metric
	samples map[string]int
	// handle and run hold Service.Handle and Scenario.Run durations per
	// matrix cell; executed marks cells whose Handle ran the scenario
	// (any cache token but hit).
	handle   [][]float64
	run      [][]float64
	executed []bool
	hits     int
	// progs are the analyzer inputs; replies the real handler's answer
	// to each analyze body, re-encoded by the traced encode span.
	progs   []*foundry.Generated
	refs    []analyzeRef
	replies []serve.AnalyzeResponse
}

func (t *traced) fail(err error) {
	t.failed++
	if t.failed <= 3 {
		fmt.Fprintf(t.errs, "perfbench: %s traced: %v\n", t.b.spec.name, err)
	}
}

// traceRun splits budget into three phases on the measured server:
//
//  1. the workload untraced, for the reference throughput and the Go
//     runtime and layout counters;
//  2. the workload's own requests decomposed into the public calls its
//     handler makes, each timed as a span;
//  3. a probe of the layers phase 2 does not reach: Scenario.Run over
//     the matrix, the image pool and memory, and either the analyzer
//     (on /run workloads) or Service.Handle (on analyze-batch).
func traceRun(b *bench, seed int64, budget time.Duration, errs io.Writer) (*traced, error) {
	n := len(b.cells)
	t := &traced{
		b: b, tr: &tracer{origin: time.Now(), durs: map[string][]float64{}},
		rng: rand.New(rand.NewSource(seed)), errs: errs,
		metrics: map[string]metric{}, samples: map[string]int{},
		handle: make([][]float64, n), run: make([][]float64, n), executed: make([]bool, n),
	}
	if b.spec.path == "/run" {
		progs, err := genPrograms(seed, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		t.progs = progs
		for _, g := range progs {
			ref, err := reference(g)
			if err != nil {
				return nil, err
			}
			t.refs = append(t.refs, ref)
		}
	} else {
		t.progs, t.refs = b.progs, b.refs
		if err := t.fetchReplies(); err != nil {
			return nil, err
		}
	}
	start := time.Now()

	m := measure(b, budget/3, errs)
	t.ops += m.ops
	t.failed += m.failed
	untraced := median(m.column(func(f figures) float64 { return f.opsPerS }))
	t.put("trace.untraced_ops_per_s", untraced, "1/s")
	t.put("runtime.gc_cpu_share", m.total.gcCPU/m.total.busyCPU, "ratio")
	t.put("runtime.gc_cycles_per_kop", float64(m.total.gcCycles)*1000/float64(m.ops), "count")
	t.put("layout.resolutions_per_op", float64(m.total.resolutions)/float64(m.ops), "count")
	t.samples["untraced"] = m.ops

	t.tr.phase()
	traced := t.workloadPhase(start.Add(2 * budget / 3))
	t.put("trace.ops_per_s", traced, "1/s")
	t.put("trace.overhead", untraced/traced-1, "ratio")

	t.tr.phase()
	if err := t.probePhase(start.Add(budget)); err != nil {
		return nil, err
	}
	t.summarize()
	return t, nil
}

func (t *traced) put(name string, v float64, unit string) { t.metrics[name] = metric{v, unit} }

// medianOf reports the median of the named spans in µs.
func (t *traced) medianOf(metricName, spanName string) {
	d := t.tr.durs[spanName]
	t.samples[spanName] = len(d)
	t.put(metricName, median(d), "us")
}

// fetchReplies asks the real /analyze handler once per body; the traced
// encode span re-encodes these answers.
func (t *traced) fetchReplies() error {
	for i, body := range t.b.bodies {
		rec := httptest.NewRecorder()
		t.b.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		t.ops++
		if err := t.b.check(i, rec.Code, rec.Body.Bytes(), ""); err != nil {
			return err
		}
		var rep serve.AnalyzeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			return err
		}
		t.replies = append(t.replies, rep)
	}
	return nil
}

// workloadPhase replays the workload's passes decomposed into spans
// until end and returns the traced throughput: the median over windows
// of requests per second of request-span time.
func (t *traced) workloadPhase(end time.Time) float64 {
	var rates []float64
	var ops int
	var busy float64 // µs of request spans in the open window
	for first := true; first || time.Now().Before(end); first = false {
		t.b.reshuffle()
		for _, i := range t.b.order {
			var us float64
			var err error
			if t.b.spec.path == "/run" {
				us, err = t.runRequest(i)
			} else {
				us, err = t.analyzeRequest(i)
			}
			t.ops++
			if err != nil {
				t.fail(err)
			}
			ops++
			busy += us
		}
		if busy >= float64(windowSpan/time.Microsecond) {
			rates = append(rates, float64(ops)/(busy/1e6))
			ops, busy = 0, 0
		}
	}
	if len(rates) == 0 {
		rates = append(rates, float64(ops)/(busy/1e6))
	}
	return median(rates)
}

// runRequest performs what the /run handler does — ParseRequest,
// Service.HandleTraced, WriteJSON — as three spans under one request
// span, then times service.Key on the parsed request as its own root.
func (t *traced) runRequest(i int) (float64, error) {
	tr, c := t.tr, t.b.cells[i]
	hreq := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(t.b.bodies[i]))
	rec := httptest.NewRecorder()

	root := tr.begin("request", 0)
	s := tr.begin("serve.parse", root.id)
	req, err := serve.ParseRequest(hreq)
	tr.end(s)
	if err != nil {
		return tr.end(root), err
	}
	s = tr.begin("service.handle", root.id)
	res, tok, rt, err := t.b.srv.Service().HandleTraced(hreq.Context(), req)
	handleUS := tr.end(s)
	if err != nil {
		return tr.end(root), err
	}
	s = tr.begin("serve.encode", root.id)
	serve.WriteJSON(rec, http.StatusOK, serve.RunResponse{
		Result: res, Cache: tok, ServeNS: int64(handleUS * 1e3), TraceID: rt.TraceID, Stages: rt.StageMS,
	})
	tr.end(s)
	us := tr.end(root)

	t.noteHandle(i, handleUS, tok)
	if err := t.timeKey(req); err != nil {
		return us, err
	}
	return us, checkRun(c, rec.Body.Bytes(), t.b.spec.wantCache)
}

func (t *traced) noteHandle(i int, us float64, tok string) {
	t.handle[i] = append(t.handle[i], us)
	if tok == service.CacheHit {
		t.hits++
	} else {
		t.executed[i] = true
	}
}

func (t *traced) timeKey(req service.Request) error {
	s := t.tr.begin("service.key", 0)
	_, err := service.Key(req)
	t.tr.end(s)
	return err
}

// analyzeRequest performs what the /analyze handler does — decode the
// body, then per program analyzer.Analyze and analyzer.Baseline, then
// WriteJSON of the answer — as spans under one request span. It then
// times analyzer.ParseProgram on each source as its own root.
func (t *traced) analyzeRequest(i int) (float64, error) {
	tr := t.tr
	refs := t.refs[i*batchPrograms : (i+1)*batchPrograms]
	rec := httptest.NewRecorder()
	root := tr.begin("request", 0)
	s := tr.begin("serve.parse", root.id)
	var req serve.AnalyzeRequest
	dec := json.NewDecoder(bytes.NewReader(t.b.bodies[i]))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	tr.end(s)
	if err == nil && len(req.Programs) != len(refs) {
		err = fmt.Errorf("analyze body %d carries %d programs, want %d", i, len(req.Programs), len(refs))
	}
	if err != nil {
		return tr.end(root), err
	}
	var errs []error
	for k, p := range req.Programs {
		codes, findings, err := t.analyzeOne(p.Src, root.id)
		if err == nil {
			err = refs[k].match(codes, findings)
		}
		errs = append(errs, err)
	}
	s = tr.begin("serve.encode", root.id)
	serve.WriteJSON(rec, http.StatusOK, t.replies[i])
	tr.end(s)
	us := tr.end(root)
	for _, p := range req.Programs {
		errs = append(errs, t.timeParse(p.Src))
	}
	return us, errors.Join(errs...)
}

// analyzeOne runs the static pass and the baseline scan on src as two
// spans and returns the static codes and the total finding count.
func (t *traced) analyzeOne(src string, parent int32) ([]string, int, error) {
	s := t.tr.begin("analyzer.analyze", parent)
	res, err := analyzer.Analyze(src, analyzer.Options{Model: foundry.Model})
	t.tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = t.tr.begin("analyzer.baseline", parent)
	bf, err := analyzer.Baseline(src)
	t.tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	var codes []string
	for _, d := range res.Diags {
		codes = append(codes, d.Code)
	}
	return codes, len(res.Diags) + len(bf), nil
}

func (t *traced) timeParse(src string) error {
	s := t.tr.begin("analyzer.parse", 0)
	_, err := analyzer.ParseProgram(src)
	t.tr.end(s)
	return err
}

// memIters is the number of image-pool and memory probes per round.
const memIters = 32

// probePhase repeats rounds of the layer probe until end.
func (t *traced) probePhase(end time.Time) error {
	pool := t.b.srv.Service().Pool()
	if pool == nil {
		return errors.New("the pinned server has no image pool")
	}
	order := make([]int, len(t.b.cells))
	for i := range order {
		order[i] = i
	}
	for first := true; first || time.Now().Before(end); first = false {
		t.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t.runScenario(i, pool)
		}
		if err := t.memRound(pool); err != nil {
			return err
		}
		if t.b.spec.path == "/run" {
			for k, g := range t.progs {
				codes, findings, err := t.analyzeOne(g.Src, 0)
				if err == nil {
					err = errors.Join(t.refs[k].match(codes, findings), t.timeParse(g.Src))
				}
				t.ops++
				if err != nil {
					t.fail(err)
				}
			}
			continue
		}
		for _, i := range order {
			if err := t.handleCell(i); err != nil {
				t.fail(err)
			}
		}
	}
	return nil
}

// runScenario times Scenario.Run on cell i with the server's image
// pool, configured as the service configures a default-model request.
func (t *traced) runScenario(i int, pool *mem.ImagePool) {
	c := t.b.cells[i]
	cfg := c.defense
	cfg.Model = layout.ILP32
	cfg.Pool = pool
	s := t.tr.begin("attack.run", 0)
	o, err := c.scenario.Run(cfg)
	t.run[i] = append(t.run[i], t.tr.end(s))
	t.ops++
	switch {
	case err != nil:
		t.fail(fmt.Errorf("%s × %s: %w", c.scenario.ID, c.defense.Name, err))
	case o.Status() != c.want:
		t.fail(fmt.Errorf("%s × %s = %s, golden %s", c.scenario.ID, c.defense.Name, o.Status(), c.want))
	}
}

// handleCell times Service.HandleTraced and service.Key on cell i as a
// no_cache request (the probe of the service layer on analyze-batch).
func (t *traced) handleCell(i int) error {
	c := t.b.cells[i]
	req := service.Request{Scenario: c.scenario.ID, Defense: c.defense.Name, NoCache: true}
	s := t.tr.begin("service.handle", 0)
	res, tok, _, err := t.b.srv.Service().HandleTraced(context.Background(), req)
	t.noteHandle(i, t.tr.end(s), tok)
	t.ops++
	if err != nil {
		return err
	}
	if res.Status != c.want {
		return fmt.Errorf("%s × %s = %s, golden %s", c.scenario.ID, c.defense.Name, res.Status, c.want)
	}
	return t.timeKey(req)
}

// memRound probes the image pool and memory of the "none" defense's
// image (machine.New maps an executable stack unless NX is on):
// Acquire, NewImage on the template, the first 64-byte write to a
// fresh clone (the copy-on-write page copy), and 64 further writes to
// the now-owned page, timed as one span.
func (t *traced) memRound(pool *mem.ImagePool) error {
	cfg := mem.ImageConfig{ExecStack: true}
	tpl := pool.Template(cfg)
	if tpl == nil {
		return errors.New("image pool has no template for the default image")
	}
	buf := make([]byte, 64)
	for k := 0; k < memIters; k++ {
		s := t.tr.begin("mem.acquire", 0)
		_, _, err := pool.Acquire(cfg)
		t.tr.end(s)
		if err != nil {
			return err
		}
		s = t.tr.begin("mem.new_image", 0)
		img, err := tpl.NewImage()
		t.tr.end(s)
		if err != nil {
			return err
		}
		base := img.Heap.Base
		s = t.tr.begin("mem.first_write", 0)
		err = img.Mem.Write(base, buf)
		t.tr.end(s)
		if err != nil {
			return err
		}
		s = t.tr.begin("mem.write64", 0)
		for j := 0; j < mem.PageSize/len(buf) && err == nil; j++ {
			err = img.Mem.Write(base.Add(int64(j*len(buf))), buf)
		}
		t.tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// summarize turns the spans and per-cell samples into the per-layer
// metrics.
func (t *traced) summarize() {
	t.medianOf("serve.parse_us", "serve.parse")
	t.medianOf("serve.encode_us", "serve.encode")
	t.medianOf("service.handle_us", "service.handle")
	t.medianOf("service.key_us", "service.key")
	t.medianOf("attack.run_us", "attack.run")
	t.medianOf("mem.acquire_us", "mem.acquire")
	t.medianOf("mem.new_image_us", "mem.new_image")
	t.medianOf("mem.first_write_us", "mem.first_write")
	t.medianOf("analyzer.parse_us", "analyzer.parse")
	t.medianOf("analyzer.analyze_us", "analyzer.analyze")
	t.medianOf("analyzer.baseline_us", "analyzer.baseline")
	writes := float64(mem.PageSize / 64)
	t.put("mem.write_ns", median(t.tr.durs["mem.write64"])*1e3/writes, "ns")
	t.samples["mem.write"] = len(t.tr.durs["mem.write64"]) * int(writes)
	t.put("service.cache_hit_ratio", float64(t.hits)/float64(len(t.tr.durs["service.handle"])), "ratio")

	// Service self time per cell: Handle minus the Scenario.Run it
	// performed, when it performed one.
	var self []float64
	for i, h := range t.handle {
		if len(h) == 0 {
			continue
		}
		v := median(h)
		if t.executed[i] {
			v -= median(t.run[i])
		}
		self = append(self, v)
	}
	t.put("service.self_us", median(self), "us")

	st := t.b.srv.Service().Pool().Stats()
	t.put("mem.pool_hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses), "ratio")

	// Per-defense overhead: geometric mean over scenarios of the
	// median run time under the defense over that under "none".
	defs := defense.Catalog()
	for di, d := range defs {
		if d.Name == defense.None.Name {
			continue
		}
		var ratios []float64
		for si := 0; si < len(t.b.cells)/len(defs); si++ {
			base := si * len(defs)
			ratios = append(ratios, median(t.run[base+di])/median(t.run[base]))
		}
		t.put(overheadMetric(d.Name), geomean(ratios), "ratio")
	}
}

// report adds the per-layer metrics.
func (t *traced) report(out map[string]metric) {
	for k, v := range t.metrics {
		out[k] = v
	}
}

// write saves the kept spans as NDJSON under dir, preceded by a summary
// line giving, over the kept spans of each name, their count, median
// duration and median and total self time (duration minus the time its
// child spans cover).
func (t *traced) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".ndjson")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()

	childDur := map[int32]float64{}
	for _, s := range t.tr.spans {
		childDur[s.Parent] += s.Dur
	}
	type layer struct {
		Count        int     `json:"count"`
		MedianUS     float64 `json:"median_us"`
		SelfMedianUS float64 `json:"self_median_us"`
		SelfTotalMS  float64 `json:"self_total_ms"`
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range t.tr.spans {
		durs[s.Name] = append(durs[s.Name], s.Dur)
		selfs[s.Name] = append(selfs[s.Name], s.Dur-childDur[s.ID])
	}
	layers := map[string]layer{}
	for name, ss := range selfs {
		var total float64
		for _, v := range ss {
			total += v
		}
		layers[name] = layer{len(ss), median(durs[name]), median(ss), total / 1e3}
	}

	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{
		"workload": workload, "seed": seed, "kept": len(t.tr.spans), "dropped": t.tr.dropped, "layers": layers,
	}); err != nil {
		return "", err
	}
	for _, s := range t.tr.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
