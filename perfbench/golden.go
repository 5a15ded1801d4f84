package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/attack"
	"repro/internal/defense"
)

// golden is the committed attack × defense matrix: the outcome word
// every (scenario, defense) cell must produce.
type golden map[string]map[string]string

// matrixTitle opens the matrix table in docs/matrix_output.txt.
const matrixTitle = "Attack x defense matrix (E15)"

// parseGolden reads the matrix table that follows matrixTitle: a header
// of "scenario" and the defense names, a dashed rule, then one row per
// scenario up to the first blank line. Cells hold no spaces, so columns
// split on whitespace.
func parseGolden(r io.Reader) (golden, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() && strings.TrimSpace(sc.Text()) != matrixTitle {
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("golden: no %q table", matrixTitle)
	}
	header := strings.Fields(sc.Text())
	if len(header) < 2 || header[0] != "scenario" {
		return nil, fmt.Errorf("golden: header %q does not start with scenario", sc.Text())
	}
	defenses := header[1:]
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "---") {
		return nil, fmt.Errorf("golden: no rule under the header")
	}
	g := golden{}
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			break
		}
		f := strings.Fields(line)
		if len(f) != len(header) {
			return nil, fmt.Errorf("golden: row %q has %d cells, want %d", line, len(f), len(header))
		}
		if _, dup := g[f[0]]; dup {
			return nil, fmt.Errorf("golden: scenario %s listed twice", f[0])
		}
		row := make(map[string]string, len(defenses))
		for i, d := range defenses {
			row[d] = f[i+1]
		}
		g[f[0]] = row
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	if len(g) == 0 {
		return nil, fmt.Errorf("golden: matrix has no rows")
	}
	return g, nil
}

// cell is one (scenario, defense) pair of the matrix with its golden
// outcome.
type cell struct {
	scenario attack.Scenario
	defense  defense.Config
	want     string
}

// cells crosses the attack and defense catalogues in catalogue order
// and looks up each pair's golden outcome. A pair the golden file lacks
// is an error: the benchmark must check every response it times.
func (g golden) cells() ([]cell, error) {
	var out []cell
	for _, sc := range attack.Catalog() {
		for _, d := range defense.Catalog() {
			want, ok := g[sc.ID][d.Name]
			if !ok {
				return nil, fmt.Errorf("golden: no outcome for %s × %s", sc.ID, d.Name)
			}
			out = append(out, cell{scenario: sc, defense: d, want: want})
		}
	}
	return out, nil
}
