package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/defense"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {90, 4.6}, {100, 5}, {25, 2}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected quartiles are what Python's statistics.quantiles(data,
// n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{2, 2, 2, 2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := relIQR([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("relIQR(1..10) = %v, want 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4}); !near(got, 2) {
		t.Errorf("geomean(1, 4) = %v", got)
	}
	if got := geomean([]float64{2, 8, 4}); !near(got, 4) {
		t.Errorf("geomean(2, 8, 4) = %v", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestOverheadMetricNames(t *testing.T) {
	if got := overheadMetric("sanitized+shadow"); got != "attack.overhead.sanitized-shadow" {
		t.Errorf("overheadMetric(sanitized+shadow) = %q", got)
	}
	if got := overheadMetric("nx"); got != "attack.overhead.nx" {
		t.Errorf("overheadMetric(nx) = %q", got)
	}
	seen := map[string]bool{}
	for _, d := range defense.Catalog() {
		name := overheadMetric(d.Name)
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("defense %q maps to invalid or duplicate metric %q", d.Name, name)
		}
		seen[name] = true
	}
}

const sampleGolden = `preamble
Attack x defense matrix (E15)
scenario  none     nx
--------  -------  ---------
alpha     SUCCESS  prevented
beta      SUCCESS  no-effect

E15 summary
defense  SUCCESS
`

func TestParseGolden(t *testing.T) {
	g, err := parseGolden(strings.NewReader(sampleGolden))
	if err != nil {
		t.Fatal(err)
	}
	if g["alpha"]["nx"] != "prevented" || g["beta"]["nx"] != "no-effect" || g["beta"]["none"] != "SUCCESS" || len(g) != 2 {
		t.Errorf("parsed %v", g)
	}
	for name, text := range map[string]string{
		"no table":   "nothing here\n",
		"no header":  "Attack x defense matrix (E15)\n",
		"bad header": "Attack x defense matrix (E15)\nfoo none\n---\n",
		"no rule":    "Attack x defense matrix (E15)\nscenario none\nalpha SUCCESS\n",
		"ragged":     "Attack x defense matrix (E15)\nscenario none nx\n---\nalpha SUCCESS\n",
		"duplicate":  "Attack x defense matrix (E15)\nscenario none\n---\nalpha SUCCESS\nalpha SUCCESS\n",
		"no rows":    "Attack x defense matrix (E15)\nscenario none\n---\n\n",
	} {
		if _, err := parseGolden(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestCommittedGoldenCoversCatalogues(t *testing.T) {
	f, err := os.Open("../docs/matrix_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := parseGolden(f)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(attack.Catalog()) * len(defense.Catalog()); len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	if len(cells) > cacheSize {
		t.Errorf("%d matrix keys exceed the pinned cache of %d", len(cells), cacheSize)
	}
	delete(g["bss-overflow"], "nx")
	if _, err := g.cells(); err == nil {
		t.Error("a golden file missing a cell was accepted")
	}
}

// TestRunReportsListedMetrics runs each mode briefly and checks the
// output against BENCHMARK.json: the untraced run reports exactly the
// end-to-end metrics, the traced run exactly the per-layer ones, with
// every operation checked and none failed.
func TestRunReportsListedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &listed); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": listed.EndToEnd, "1": listed.PerLayer} {
		var out bytes.Buffer
		args := []string{"--workload", "hot-hit", "--seed", "7", "--seconds", "0.3", "--trace", trace,
			"--golden", "../docs/matrix_output.txt", "--spans", t.TempDir()}
		if err := run(args, &out, os.Stderr); err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
		}
		var got, exp []string
		for name, m := range res.Metrics {
			got = append(got, name+" "+m.Unit)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("trace %s: %s = %v", trace, name, m.Value)
			}
		}
		for _, m := range want {
			exp = append(exp, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(exp)
		if strings.Join(got, ",") != strings.Join(exp, ",") {
			t.Errorf("trace %s reports\n %v\nBENCHMARK.json lists\n %v", trace, got, exp)
		}
	}
}
