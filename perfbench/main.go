// Command perfbench is the repository's end-to-end benchmark. It drives
// the real /run and /analyze handlers of serve.NewServer in-process,
// without a socket, from one closed-loop client with one request in
// flight, checks every response, and prints the run's metrics as one
// JSON object on the last line of standard output. With -trace 1 it
// instead times calls into each layer's public functions and prints the
// per-layer metrics. README.md describes the workloads and metrics;
// run.py builds and runs it from the repository root:
//
//	python3 perfbench/run.py --workload matrix-miss --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// Set-up is timed over several cold starts and reported as their
// median: at least minColdStarts, more while under setupBudget.
const (
	minColdStarts = 7
	maxColdStarts = 60
	setupBudget   = 3 * time.Second
)

// windowSpan is the handler time one measurement window collects. Each
// end-to-end figure is the median over a run's windows, so a burst of
// interference from the rest of the machine moves one window, not the
// figure.
const windowSpan = 250 * time.Millisecond

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "matrix-miss, hot-hit or analyze-batch")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	goldenPath := fs.String("golden", "docs/matrix_output.txt", "committed attack × defense matrix")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := specByName(*workload)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	f, err := os.Open(*goldenPath)
	if err != nil {
		return err
	}
	g, err := parseGolden(f)
	f.Close()
	if err != nil {
		return err
	}
	cells, err := g.cells()
	if err != nil {
		return err
	}
	if len(cells) > cacheSize {
		return fmt.Errorf("%d matrix keys exceed the pinned cache of %d", len(cells), cacheSize)
	}

	// Set-up: each cold start builds a server, generates the inputs and
	// runs one warm-up pass (filling the cache on hot-hit). The last one
	// is kept for measurement.
	res := result{Metrics: map[string]metric{}}
	var b *bench
	var setups, rawSetups []float64
	var spent time.Duration
	prev := speed()
	for len(setups) < minColdStarts || (spent < setupBudget && len(setups) < maxColdStarts) {
		if b != nil {
			// Collect the retired server so its garbage does not set the
			// next cold start's (or the run's peak) memory.
			b.close()
			runtime.GC()
		}
		t0 := time.Now()
		if b, err = newBench(sp, *seed, cells); err != nil {
			return err
		}
		warm := b.runPass(sp.warmCache, stderr)
		d := time.Since(t0)
		next := speed()
		spent += d
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()*(prev+next)/2)
		prev = next
		res.Attempted += len(warm.lat)
		res.Failed += warm.failed
	}
	defer b.close()

	budget := time.Duration(*seconds * float64(time.Second))
	info := map[string]any{
		"workload": sp.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"config": configRecord(pinnedConfig()), "cold_starts": len(setups),
	}
	if *trace == 0 {
		m := measure(b, budget, stderr)
		res.Attempted += m.ops
		res.Failed += m.failed
		m.report(res.Metrics)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["rss_mb"] = metric{peakRSSMB(), "MiB"}
		raw := m.raw()
		raw["setup_s"] = median(rawSetups)
		info["samples"] = m.ops
		info["windows"] = len(m.windows)
		info["window_spread"] = m.spread()
		info["setup_spread"] = relIQR(setups)
		info["speed"] = median(m.column(func(f figures) float64 { return f.speed }))
		info["raw"] = raw
	} else {
		t, err := traceRun(b, *seed, budget, stderr)
		if err != nil {
			return err
		}
		res.Attempted += t.ops
		res.Failed += t.failed
		t.report(res.Metrics)
		info["samples"] = t.samples
		if info["spans_file"], err = t.write(*spansDir, sp.name, *seed); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"run": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// window is the aggregate of consecutive passes.
type window struct {
	ops      int
	lat      []float64
	handler  time.Duration
	counters counters
}

func (w *window) add(p pass) {
	w.ops += len(p.lat)
	w.lat = append(w.lat, p.lat...)
	w.handler += p.handler
	w.counters.add(p.counters)
}

// figures are one window's end-to-end metrics as measured, with the
// machine's speed around the window (see speed.go).
type figures struct {
	opsPerS, p50, p90, cpuUS, allocKB float64
	speed                             float64
}

func (w *window) figures() figures {
	return figures{
		opsPerS: float64(w.ops) / w.handler.Seconds(),
		p50:     percentile(w.lat, 50),
		p90:     percentile(w.lat, 90),
		cpuUS:   float64(w.counters.cpu.Microseconds()) / float64(w.ops),
		allocKB: float64(w.counters.alloc) / 1024 / float64(w.ops),
	}
}

// measurement is an untraced run's windows plus its totals.
type measurement struct {
	windows []figures
	ops     int
	failed  int
	total   counters
}

// measure runs whole passes until budget has elapsed and at least one
// window has closed.
func measure(b *bench, budget time.Duration, errs io.Writer) measurement {
	var m measurement
	var cur window
	end := time.Now().Add(budget)
	prev := speed()
	for time.Now().Before(end) || len(m.windows) == 0 {
		p := b.runPass(b.spec.wantCache, errs)
		m.ops += len(p.lat)
		m.failed += p.failed
		m.total.add(p.counters)
		cur.add(p)
		if cur.handler >= windowSpan {
			f := cur.figures()
			next := speed()
			f.speed = (prev + next) / 2
			prev = next
			m.windows = append(m.windows, f)
			cur = window{}
		}
	}
	return m
}

// column extracts one figure from every window.
func (m measurement) column(f func(figures) float64) []float64 {
	out := make([]float64, len(m.windows))
	for i, w := range m.windows {
		out[i] = f(w)
	}
	return out
}

// columns are the windowed end-to-end figures. power is how a figure
// scales with the machine's speed: times scale with it (1), rates
// against it (-1), and allocation not at all (0).
var columns = []struct {
	name, unit string
	power      float64
	get        func(figures) float64
}{
	{"ops_per_s", "1/s", -1, func(f figures) float64 { return f.opsPerS }},
	{"latency_p50_ms", "ms", 1, func(f figures) float64 { return f.p50 }},
	{"latency_p90_ms", "ms", 1, func(f figures) float64 { return f.p90 }},
	{"cpu_us_per_op", "us", 1, func(f figures) float64 { return f.cpuUS }},
	{"alloc_kb_per_op", "KiB", 0, func(f figures) float64 { return f.allocKB }},
}

// adjusted is a figure of every window scaled to a machine of nominal
// speed.
func (m measurement) adjusted(power float64, get func(figures) float64) []float64 {
	return m.column(func(f figures) float64 { return get(f) * math.Pow(f.speed, power) })
}

// report adds the median over windows of each speed-adjusted figure.
func (m measurement) report(out map[string]metric) {
	for _, c := range columns {
		out[c.name] = metric{median(m.adjusted(c.power, c.get)), c.unit}
	}
}

// raw is the median over windows of each figure as measured.
func (m measurement) raw() map[string]float64 {
	out := map[string]float64{}
	for _, c := range columns {
		out[c.name] = median(m.column(c.get))
	}
	return out
}

// spread is each adjusted figure's interquartile range across windows
// as a share of its median.
func (m measurement) spread() map[string]float64 {
	out := map[string]float64{}
	for _, c := range columns {
		out[c.name] = relIQR(m.adjusted(c.power, c.get))
	}
	return out
}
