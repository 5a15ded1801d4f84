package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attack"
	"repro/internal/compile"
	"repro/internal/defense"
	"repro/internal/layout"
	"repro/internal/mem"
)

// TestCompiledReplayDoesNoLayoutResolution is the setup-cost sentinel
// regression test: an interpreted scenario run resolves class layouts
// (the counter must advance — proving the sentinel itself is live),
// while a compiled replay must perform exactly zero resolutions. A
// non-zero delta means setup work leaked back into the compiled
// dispatch loop — the regression the -compile bench guards against,
// and the same class of bug as the scenario sweeps that used to
// rebuild the catalogue inside their timed region.
func TestCompiledReplayDoesNoLayoutResolution(t *testing.T) {
	// internal-overflow declares its enclosing class on every run, so
	// its interpreted run resolves a layout even after the shared world
	// classes are cached for the model.
	s, err := attack.ByID("internal-overflow")
	if err != nil {
		t.Fatal(err)
	}

	before := layout.Resolutions()
	if _, err := s.Run(defense.None); err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	if layout.Resolutions() == before {
		t.Fatal("sentinel is dead: an interpreted run advanced no layout resolutions")
	}

	sp, err := compile.CompileScenario(s, defense.None)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pool := mem.NewImagePool()
	before = layout.Resolutions()
	for i := 0; i < 5; i++ {
		if _, _, err := sp.Run(pool); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	if delta := layout.Resolutions() - before; delta != 0 {
		t.Fatalf("compiled replay performed %d layout resolutions, want 0", delta)
	}
}

func TestScenarioClassCoversCatalogue(t *testing.T) {
	valid := map[string]bool{"vptr": true, "pointer": true, "array": true, "lifecycle": true, "overflow": true}
	seen := map[string]bool{}
	for _, s := range attack.Catalog() {
		cls := scenarioClass(s.ID)
		if !valid[cls] {
			t.Errorf("scenario %s mapped to unknown class %q", s.ID, cls)
		}
		seen[cls] = true
	}
	if len(seen) < 3 {
		t.Errorf("class mapping collapsed: only %v populated", seen)
	}
}

// TestRunCompileBenchArtifacts smokes the full -compile mode into a
// temp dir: both artifacts written, schema and sentinel correct, and
// the program dump deterministic across a second compile.
func TestRunCompileBenchArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("timed benchmark; skipped in -short")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runCompileBench(dir, 0, &out); err != nil {
		t.Fatalf("runCompileBench: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_COMPILE.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep benchCompile
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != CompileSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, CompileSchema)
	}
	if len(rep.Scenarios) != len(attack.Catalog()) {
		t.Errorf("scenario rows = %d, want %d", len(rep.Scenarios), len(attack.Catalog()))
	}
	if rep.ResolutionsInCompiledRegion != 0 {
		t.Errorf("sentinel: %d resolutions in compiled region", rep.ResolutionsInCompiledRegion)
	}
	if rep.Speedup <= 1 {
		t.Errorf("aggregate speedup %.2fx <= 1x", rep.Speedup)
	}

	dump1, err := os.ReadFile(filepath.Join(dir, "PROGRAMS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dump2, err := compileBenchPrograms(attack.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump1, []byte(dump2)) {
		t.Error("PROGRAMS.txt not deterministic across independent compiles")
	}
}
