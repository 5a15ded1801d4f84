// Package attack implements the paper's attack catalogue: one runnable
// scenario per demonstrated listing/section (§3–§4), each parameterised by
// a defense configuration so the identical attack code can be crossed
// against every protection technique of §5 (experiment E15).
//
// A scenario reports a structured Outcome rather than panicking or
// asserting: whether the attack achieved its goal, whether a defense
// prevented it up front or detected it after the fact, whether the victim
// process crashed, and any scenario-specific metrics (leaked bytes, loop
// amplification, leak rate, overwrite indexes).
package attack

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/heap"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/serial"
)

// Outcome is the structured result of one scenario run under one defense.
type Outcome struct {
	Scenario string
	Defense  string
	// Succeeded reports the attack achieved its stated goal.
	Succeeded bool
	// Prevented reports a defense stopped the attack before any damage
	// (rejected placement, runtime guard, NX fault before shellcode ran).
	Prevented   bool
	PreventedBy string
	// Detected reports a defense observed the damage and aborted the
	// process (canary, shadow stack) — damage done, exploitation stopped.
	Detected   bool
	DetectedBy string
	// Crashed reports the process died without any defense taking credit.
	Crashed bool
	// Details are human-readable notes in occurrence order.
	Details []string
	// Metrics carries scenario-specific numbers (bytes leaked, iteration
	// counts, the ssn index that hit the victim word, ...).
	Metrics map[string]float64
}

func newOutcome(scenario string, cfg defense.Config) *Outcome {
	return &Outcome{Scenario: scenario, Defense: cfg.Name, Metrics: make(map[string]float64)}
}

func (o *Outcome) note(format string, args ...any) {
	o.Details = append(o.Details, fmt.Sprintf(format, args...))
}

// Status renders the one-word cell used in the E15 matrix.
func (o *Outcome) Status() string {
	switch {
	case o.Prevented:
		return "prevented"
	case o.Detected:
		return "detected"
	case o.Succeeded:
		return "SUCCESS"
	case o.Crashed:
		return "crashed"
	default:
		return "no-effect"
	}
}

// classify folds an error from a placement or a call into the outcome.
// It returns true when the error was an expected defense/crash signal
// (and has been recorded), false when it is an infrastructure error the
// scenario must propagate.
func (o *Outcome) classify(err error) bool {
	if err == nil {
		return true
	}
	var be *core.BoundsError
	var ae *core.AlignError
	var te *core.TypeError
	var ee *serial.ElementsError
	var ge *machine.GuardError
	var rz *heap.RedZoneError
	switch {
	case errors.As(err, &te):
		o.Prevented = true
		o.PreventedBy = "typed-placement"
		o.note("placement rejected: %v", err)
		return true
	case errors.As(err, &be), errors.As(err, &ae), errors.As(err, &ee):
		o.Prevented = true
		o.PreventedBy = "checked-placement"
		o.note("placement rejected: %v", err)
		return true
	case errors.As(err, &ge):
		o.Prevented = true
		o.PreventedBy = "runtime-guard"
		o.note("placement rejected: %v", err)
		return true
	case errors.As(err, &rz):
		o.Detected = true
		o.DetectedBy = "heapguard"
		o.note("hardened allocator detected the overflow: %v", err)
		return true
	}
	if flt, ok := mem.IsFault(err); ok {
		switch flt.Kind {
		case mem.FaultGuard:
			o.Detected = true
			o.DetectedBy = "memguard"
			o.note("red zone caught the overflowing write: %v", err)
			return true
		case mem.FaultShadow:
			o.Detected = true
			o.DetectedBy = "shadow"
			o.note("shadow memory rejected the write before it landed: %v", err)
			return true
		}
	}
	var ab *machine.AbortError
	if errors.As(err, &ab) {
		switch ab.Kind {
		case machine.EvCanaryAbort:
			o.Detected = true
			o.DetectedBy = "stackguard"
		case machine.EvShadowAbort:
			o.Detected = true
			o.DetectedBy = "shadowstack"
		case machine.EvGuardAbort:
			o.Detected = true
			o.DetectedBy = "memguard"
		case machine.EvShadowViolation:
			o.Detected = true
			o.DetectedBy = "shadow"
		case machine.EvNXViolation:
			o.Prevented = true
			o.PreventedBy = "nx"
		default:
			o.Crashed = true
		}
		o.note("process aborted: %v", ab)
		return true
	}
	return false
}

// Scenario is one attack from the catalogue.
type Scenario struct {
	// ID is the stable short name used by the CLI and the matrix.
	ID string
	// Ref cites the paper section/listing the scenario reproduces.
	Ref string
	// Title is a one-line description.
	Title string
	// Run executes the attack under the given defense configuration.
	Run func(cfg defense.Config) (*Outcome, error)
}

// catalog is every scenario in paper order, built once. It is never
// modified: Catalog hands out copies.
var catalog = []Scenario{
	{"construct-overflow", "§3.1 L4", "object overflow via construction", runConstructOverflow},
	{"remote-overflow", "§3.2 L5–7", "object overflow via serialized/remote object", runRemoteOverflow},
	{"remote-array", "§3.2 L5–6", "oversized remote array walks past declared member", runRemoteArray},
	{"indirect-overflow", "§3.3 L8–9", "object overflow via indirect construction", runIndirectOverflow},
	{"internal-overflow", "§3.4 L10", "internal overflow of enclosing object state", runInternalOverflow},
	{"bss-overflow", "§3.5 L11", "data/bss overflow rewrites sibling object", runBssOverflow},
	{"heap-overflow", "§3.5.1 L12", "heap overflow rewrites adjacent buffer", runHeapOverflow},
	{"stack-ret", "§3.6.1 L13", "return-address overwrite via object overflow", runStackRet},
	{"canary-skip", "§5.2", "selective overwrite bypasses StackGuard", runCanarySkip},
	{"arc-injection", "§3.6.2", "return-to-privileged-function (arc injection)", runArcInjection},
	{"code-injection", "§3.6.2", "stack shellcode execution (code injection)", runCodeInjection},
	{"var-bss", "§3.7.1 L14", "overwrite of global variable in data/bss", runVarBss},
	{"var-stack", "§3.7.2 L15", "overwrite of local variable on stack", runVarStack},
	{"member-var", "§3.8.1 L16", "overwrite of adjacent object's member", runMemberVar},
	{"vptr-bss", "§3.8.2", "vtable-pointer subterfuge via bss overflow", runVptrBss},
	{"vptr-stack", "§3.8.2", "vtable-pointer subterfuge via stack overflow", runVptrStack},
	{"vptr-crash", "§3.8.2", "invalid vtable pointer crashes the victim (DoS)", runVptrCrash},
	{"vptr-multi", "§3.8.2", "secondary vtable pointer subterfuge (multiple inheritance)", runVptrMulti},
	{"type-confusion", "§2.5(3)", "same-size type confusion defeats pure bounds checking", runTypeConfusion},
	{"funcptr", "§3.9 L17", "function-pointer subterfuge", runFuncPtr},
	{"varptr", "§3.10 L18", "variable-pointer subterfuge", runVarPtr},
	{"array-2step-stack", "§4.1 L19", "two-step array overflow smashes the stack", runArrayTwoStepStack},
	{"array-2step-bss", "§4.2 L20", "two-step array overflow past a global pool", runArrayTwoStepBss},
	{"infoleak-array", "§4.3 L21", "information leak through pool reuse (array)", runInfoLeakArray},
	{"infoleak-object", "§4.3 L22", "information leak through arena reuse (object)", runInfoLeakObject},
	{"dos-loop", "§4.4", "denial of service via loop-bound modification", runDoSLoop},
	{"dos-exhaust", "§4.4", "denial of service via resource exhaustion", runDoSExhaust},
	{"memleak", "§4.5 L23", "memory leak via undersized release", runMemLeak},
	{"dangling-write", "§4.5 L23", "stale store through a released placement", runDanglingWrite},
}

// Catalog returns every scenario in paper order, as a fresh slice the
// caller may modify.
func Catalog() []Scenario {
	return append([]Scenario(nil), catalog...)
}

// ByID resolves a scenario by its short name.
func ByID(id string) (Scenario, error) {
	for _, s := range catalog {
		if s.ID == id {
			return s, nil
		}
	}
	var known []string
	for _, s := range catalog {
		known = append(known, s.ID)
	}
	sort.Strings(known)
	return Scenario{}, fmt.Errorf("attack: unknown scenario %q (known: %v)", id, known)
}

// RunAll executes every scenario under cfg.
func RunAll(cfg defense.Config) ([]*Outcome, error) {
	var out []*Outcome
	for _, s := range catalog {
		o, err := s.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("attack: scenario %s under %s: %w", s.ID, cfg.Name, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// RunMatrix crosses every scenario with every defense configuration —
// experiment E15.
func RunMatrix(configs []defense.Config) (map[string]map[string]*Outcome, error) {
	matrix := make(map[string]map[string]*Outcome)
	for _, s := range catalog {
		row := make(map[string]*Outcome, len(configs))
		for _, cfg := range configs {
			o, err := s.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("attack: scenario %s under %s: %w", s.ID, cfg.Name, err)
			}
			row[cfg.Name] = o
		}
		matrix[s.ID] = row
	}
	return matrix, nil
}

// --- shared scenario scaffolding ------------------------------------------

// world bundles a defended process with the paper's running-example
// classes (Listing 1), plus the polymorphic variants of §3.8.2.
type world struct {
	cfg defense.Config
	p   *machine.Process
	*worldClasses
}

// worldClasses are the Listing 1 classes and their polymorphic variants.
// One set exists per data model and is shared by every run under that
// model, concurrent runs included: each class is resolved with layout.Of
// before the set is published and never mutated afterwards, so runs only
// read the classes' cached layouts.
type worldClasses struct {
	student *layout.Class // { double gpa; int year, semester; }
	grad    *layout.Class // : Student { int ssn[3]; }

	vstudent *layout.Class // adds virtual getInfo()
	vgrad    *layout.Class
}

// worldClassCache maps Model.Name to its resolved *worldClasses, like
// layout's own per-model cache.
var worldClassCache sync.Map

// classesFor returns the world classes resolved under m, building them on
// the first run under that model.
func classesFor(m layout.Model) (*worldClasses, error) {
	if wc, ok := worldClassCache.Load(m.Name); ok {
		return wc.(*worldClasses), nil
	}
	wc := &worldClasses{}
	wc.student = layout.NewClass("Student").
		AddField("gpa", layout.Double).
		AddField("year", layout.Int).
		AddField("semester", layout.Int)
	wc.grad = layout.NewClass("GradStudent", wc.student).
		AddField("ssn", layout.ArrayOf(layout.Int, 3))
	wc.vstudent = layout.NewClass("VStudent").
		AddVirtual("getInfo").
		AddField("gpa", layout.Double).
		AddField("year", layout.Int).
		AddField("semester", layout.Int)
	wc.vgrad = layout.NewClass("VGradStudent", wc.vstudent).
		AddVirtual("getInfo").
		AddField("ssn", layout.ArrayOf(layout.Int, 3))
	for _, c := range []*layout.Class{wc.student, wc.grad, wc.vstudent, wc.vgrad} {
		if _, err := layout.Of(c, m); err != nil {
			return nil, err
		}
	}
	// A racing first run may have published its own set; every run under
	// m uses whichever was stored first.
	got, _ := worldClassCache.LoadOrStore(m.Name, wc)
	return got.(*worldClasses), nil
}

func newWorld(cfg defense.Config) (*world, error) {
	p, err := cfg.NewProcess()
	if err != nil {
		return nil, err
	}
	wc, err := classesFor(p.Model)
	if err != nil {
		return nil, err
	}
	return &world{cfg: cfg, p: p, worldClasses: wc}, nil
}

// sizes returns sizeof(Student) and sizeof(GradStudent) under the world's
// model.
func (w *world) sizes() (student, grad uint64) {
	return w.student.Size(w.p.Model), w.grad.Size(w.p.Model)
}
