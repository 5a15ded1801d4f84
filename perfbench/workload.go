package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"repro/internal/analyzer"
	"repro/internal/foundry"
	"repro/internal/serve"
	"repro/internal/service"
)

// cacheSize holds every matrix key with room to spare, so hot-hit never
// evicts and every measured request is a hit.
const cacheSize = 1024

// Shape of the analyze-batch inputs: batches bodies per pass, each
// carrying batchPrograms explicit foundry sources.
const (
	batches       = 64
	batchPrograms = 8
)

// pinnedConfig is the server every run measures. Quotas, the adaptive
// limiter, the breaker and the compiled tier stay off: with one request
// in flight nothing queues, so admission would only add variance, and
// the compiled tier serves recorded outcomes instead of executing. One
// worker is enough for one request in flight and never exceeds nproc.
func pinnedConfig() serve.Config {
	return serve.Config{Workers: 1, Queue: 64, CacheSize: cacheSize}
}

// configRecord is pinnedConfig as it is reported in every run's output.
func configRecord(cfg serve.Config) map[string]any {
	return map[string]any{
		"workers":           cfg.Workers,
		"queue":             cfg.Queue,
		"cache_size":        cfg.CacheSize,
		"cache_ttl_s":       cfg.CacheTTL.Seconds(),
		"tenant_rate":       cfg.TenantRate,
		"p99_target_ms":     cfg.P99Target.Milliseconds(),
		"breaker_threshold": cfg.BreakerThreshold,
		"compiled":          cfg.Compiled,
		"deterministic":     cfg.Deterministic,
	}
}

// spec describes one workload; README.md gives why each exists.
type spec struct {
	name string
	path string
	// noCache marks every /run request no_cache=true.
	noCache bool
	// warmCache and wantCache are the cache tokens /run responses must
	// carry during the warm-up pass and during measurement.
	warmCache, wantCache string
}

var specs = []*spec{
	{name: "matrix-miss", path: "/run", noCache: true, warmCache: service.CacheBypass, wantCache: service.CacheBypass},
	{name: "hot-hit", path: "/run", warmCache: service.CacheMiss, wantCache: service.CacheHit},
	{name: "analyze-batch", path: "/analyze"},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// analyzeRef is the direct analyzer answer one /analyze item must match.
type analyzeRef struct {
	name     string
	codes    []string // static diagnostic codes, in report order
	findings int      // static plus baseline findings
}

// bench is one cold-started server with its seeded inputs.
type bench struct {
	spec  *spec
	srv   *serve.Server
	h     http.Handler
	cells []cell
	rng   *rand.Rand
	// bodies are the request bodies (one per matrix cell, or one per
	// analyze batch); order is the current pass order over them.
	bodies [][]byte
	order  []int
	// progs and refs hold the analyze-batch sources (batches ×
	// batchPrograms, body-major) and their direct reference answers.
	progs []*foundry.Generated
	refs  []analyzeRef
}

// newBench builds a server and the workload's inputs from seed. The
// seed shuffles the matrix order and picks the foundry program indices.
func newBench(sp *spec, seed int64, cells []cell) (*bench, error) {
	srv := serve.NewServer(pinnedConfig())
	b := &bench{spec: sp, srv: srv, h: srv.Handler(), cells: cells, rng: rand.New(rand.NewSource(seed))}
	var err error
	if sp.path == "/run" {
		err = b.runInputs()
	} else {
		err = b.analyzeInputs(seed)
	}
	if err != nil {
		srv.BeginDrain()
		return nil, err
	}
	b.order = b.rng.Perm(len(b.bodies))
	return b, nil
}

func (b *bench) runInputs() error {
	for _, c := range b.cells {
		body, err := json.Marshal(service.Request{Scenario: c.scenario.ID, Defense: c.defense.Name, NoCache: b.spec.noCache})
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body)
	}
	return nil
}

// genPrograms returns batches × batchPrograms distinct foundry programs
// of corpus seed, at indices the seed's rng picks.
func genPrograms(seed int64, rng *rand.Rand) ([]*foundry.Generated, error) {
	idx := rng.Perm(1 << 14)[:batches*batchPrograms]
	out := make([]*foundry.Generated, len(idx))
	for i, j := range idx {
		g, err := foundry.Generate(seed, j)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// reference answers src directly through the analyzer, the way
// /analyze does: static pass under foundry.Model plus baseline scan.
func reference(g *foundry.Generated) (analyzeRef, error) {
	res, err := analyzer.Analyze(g.Src, analyzer.Options{Model: foundry.Model})
	if err != nil {
		return analyzeRef{}, fmt.Errorf("reference %s: %w", g.Labels.Name, err)
	}
	bf, err := analyzer.Baseline(g.Src)
	if err != nil {
		return analyzeRef{}, fmt.Errorf("reference %s: %w", g.Labels.Name, err)
	}
	ref := analyzeRef{name: g.Labels.Name, findings: len(res.Diags) + len(bf)}
	for _, d := range res.Diags {
		ref.codes = append(ref.codes, d.Code)
	}
	return ref, nil
}

func (b *bench) analyzeInputs(seed int64) error {
	progs, err := genPrograms(seed, b.rng)
	if err != nil {
		return err
	}
	b.progs = progs
	for _, g := range progs {
		ref, err := reference(g)
		if err != nil {
			return err
		}
		b.refs = append(b.refs, ref)
	}
	for i := 0; i < batches; i++ {
		var req serve.AnalyzeRequest
		for _, g := range progs[i*batchPrograms : (i+1)*batchPrograms] {
			req.Programs = append(req.Programs, serve.AnalyzeProgram{Name: g.Labels.Name, Src: g.Src})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		b.bodies = append(b.bodies, body)
	}
	return nil
}

// reshuffle draws the next pass order from the seeded rng.
func (b *bench) reshuffle() {
	b.rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
}

// check validates one response to body i against the golden matrix or
// the analyzer reference.
func (b *bench) check(i int, code int, body []byte, wantCache string) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	if b.spec.path == "/run" {
		return checkRun(b.cells[i], body, wantCache)
	}
	return checkAnalyze(b.refs[i*batchPrograms:(i+1)*batchPrograms], body)
}

func checkRun(c cell, body []byte, wantCache string) error {
	var rep struct {
		ID      string `json:"id"`
		Defense string `json:"defense"`
		Status  string `json:"status"`
		Cache   string `json:"cache"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("/run reply: %w", err)
	}
	switch {
	case rep.ID != c.scenario.ID || rep.Defense != c.defense.Name:
		return fmt.Errorf("/run %s × %s answered for %s × %s", c.scenario.ID, c.defense.Name, rep.ID, rep.Defense)
	case rep.Status != c.want:
		return fmt.Errorf("/run %s × %s = %s, golden %s", c.scenario.ID, c.defense.Name, rep.Status, c.want)
	case rep.Cache != wantCache:
		return fmt.Errorf("/run %s × %s cache %q, want %q", c.scenario.ID, c.defense.Name, rep.Cache, wantCache)
	}
	return nil
}

func checkAnalyze(refs []analyzeRef, body []byte) error {
	var rep serve.AnalyzeResponse
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("/analyze reply: %w", err)
	}
	if len(rep.Results) != len(refs) {
		return fmt.Errorf("/analyze returned %d items, want %d", len(rep.Results), len(refs))
	}
	for k, it := range rep.Results {
		ref := refs[k]
		if it.Code != http.StatusOK || it.Name != ref.name {
			return fmt.Errorf("/analyze item %d: %s code %d %s, want %s 200", k, it.Name, it.Code, it.Error, ref.name)
		}
		var codes []string
		for _, f := range it.Findings {
			if f.Plane == "static" {
				codes = append(codes, f.Code)
			}
		}
		if err := ref.match(codes, len(it.Findings)); err != nil {
			return err
		}
	}
	return nil
}

// match compares an answer's static codes and finding count with ref.
func (ref analyzeRef) match(codes []string, findings int) error {
	if !slices.Equal(codes, ref.codes) || findings != ref.findings {
		return fmt.Errorf("analyze %s: codes %v and %d findings, reference %v and %d",
			ref.name, codes, findings, ref.codes, ref.findings)
	}
	return nil
}

// pass is what one pass over every request body measured.
type pass struct {
	lat      []float64 // handler latency per request, ms
	handler  time.Duration
	counters counters // deltas over the request loop
	failed   int
}

// runPass sends every request body once, in a fresh seeded order,
// through the real handler with one request in flight. Requests and
// recorders are built before the timed loop and checked after it, so
// the latencies and resource deltas hold only the handler's work.
func (b *bench) runPass(wantCache string, errs io.Writer) pass {
	b.reshuffle()
	n := len(b.order)
	reqs := make([]*http.Request, n)
	recs := make([]*httptest.ResponseRecorder, n)
	for k, i := range b.order {
		reqs[k] = httptest.NewRequest(http.MethodPost, b.spec.path, bytes.NewReader(b.bodies[i]))
		recs[k] = httptest.NewRecorder()
	}
	p := pass{lat: make([]float64, n)}
	before := readCounters()
	for k := range reqs {
		t0 := time.Now()
		b.h.ServeHTTP(recs[k], reqs[k])
		d := time.Since(t0)
		p.handler += d
		p.lat[k] = float64(d) / float64(time.Millisecond)
	}
	p.counters = readCounters().sub(before)
	for k, i := range b.order {
		if err := b.check(i, recs[k].Code, recs[k].Body.Bytes(), wantCache); err != nil {
			p.failed++
			if p.failed <= 3 {
				fmt.Fprintf(errs, "perfbench: %s: %v\n", b.spec.name, err)
			}
		}
	}
	return p
}

// close stops the server's workers.
func (b *bench) close() { b.srv.BeginDrain() }
