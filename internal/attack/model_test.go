package attack

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/defense"
	"repro/internal/layout"
)

// TestAttacksGeneraliseAcrossDataModels runs the whole catalogue on the
// natural-alignment 32-bit model and on LP64: the paper's attacks are not
// artifacts of the i386 layout — every one still succeeds undefended, and
// checked placement still stops the overflow class. (The paper only
// evaluated 32-bit Ubuntu; this is the generality ablation DESIGN.md
// calls out.)
func TestAttacksGeneraliseAcrossDataModels(t *testing.T) {
	models := []layout.Model{layout.ILP32, layout.LP64}
	for _, m := range models {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			none := defense.Config{Name: "none-" + m.Name, Model: m}
			for _, s := range Catalog() {
				s := s
				t.Run(s.ID, func(t *testing.T) {
					o, err := s.Run(none)
					if err != nil {
						t.Fatal(err)
					}
					if !o.Succeeded {
						t.Errorf("attack failed on %s: %s %v", m.Name, o.Status(), o.Details)
					}
				})
			}
		})
	}
}

// TestCheckedPlacementGeneralisesToLP64: the §5.1 discipline is equally
// effective on the 64-bit layout.
func TestCheckedPlacementGeneralisesToLP64(t *testing.T) {
	checked := defense.Config{Name: "checked-lp64", Model: layout.LP64, CheckedPlacement: true}
	for _, id := range []string{"construct-overflow", "stack-ret", "vptr-bss", "array-2step-stack"} {
		t.Run(id, func(t *testing.T) {
			o := runScenario(t, id, checked)
			if !o.Prevented {
				t.Errorf("status = %s, want prevented; %v", o.Status(), o.Details)
			}
		})
	}
}

// TestStackGuardGeneralisesToLP64: the canary and its §5.2 bypass behave
// identically on 64-bit frames (8-byte canary/FP/return words).
func TestStackGuardGeneralisesToLP64(t *testing.T) {
	sg := defense.Config{Name: "stackguard-lp64", Model: layout.LP64, StackGuard: true}
	o := runScenario(t, "stack-ret", sg)
	if !o.Detected {
		t.Errorf("linear smash not detected on LP64: %s %v", o.Status(), o.Details)
	}
	o = runScenario(t, "canary-skip", sg)
	if !o.Succeeded {
		t.Errorf("canary skip failed on LP64: %s %v", o.Status(), o.Details)
	}
}

// TestMatrixConcurrentAcrossDataModels runs the 29 × 14 matrix under
// ILP32, ILP32-i386 and LP64 from several goroutines at once, starting
// from an empty world-class cache so the goroutines also race to build
// and publish each model's classes. Every outcome must equal the one a
// sequential run produced. Under -race this is the gate for the sharing
// contract of worldClasses: resolved before publication, only read after.
func TestMatrixConcurrentAcrossDataModels(t *testing.T) {
	if testing.Short() {
		t.Skip("three full matrices per goroutine are slow in -short mode")
	}
	type cell struct {
		s   Scenario
		cfg defense.Config
	}
	models := []layout.Model{layout.ILP32, layout.ILP32i386, layout.LP64}
	var cells []cell
	for _, m := range models {
		for _, d := range defense.Catalog() {
			d.Model = m
			for _, s := range Catalog() {
				cells = append(cells, cell{s, d})
			}
		}
	}
	render := func(c cell) string {
		o, err := c.s.Run(c.cfg)
		if err != nil {
			return fmt.Sprintf("%s/%s/%s: error %v", c.s.ID, c.cfg.Name, c.cfg.Model.Name, err)
		}
		return fmt.Sprintf("%s/%s/%s: %s %q %v", c.s.ID, c.cfg.Name, c.cfg.Model.Name, o.Status(), o.Details, o.Metrics)
	}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = render(c)
	}

	worldClassCache.Range(func(k, _ any) bool {
		worldClassCache.Delete(k)
		return true
	})
	// Two goroutines start on each model's matrix, both with that model
	// cold, released together so they race to build and publish its
	// classes; each then walks on through the other two models.
	workers := 2 * len(models)
	perModel := len(cells) / len(models)
	start := make(chan struct{})
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		got[g] = make([]string, len(cells))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range cells {
				i := (k + (g%len(models))*perModel) % len(cells)
				got[g][i] = render(cells[i])
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range got {
		for i := range cells {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d diverged from the sequential run:\n got %s\nwant %s", g, got[g][i], want[i])
			}
		}
	}
}
