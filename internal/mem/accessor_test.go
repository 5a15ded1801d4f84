package mem

import (
	"fmt"
	"strings"
	"testing"
)

// This file pins the typed scalar accessors (ReadU8…ReadU64 and
// WriteU8…WriteU64, reached here through ReadUint/WriteUint) to the
// byte-slice pipeline they shortcut. Every case builds two identical
// memories, arms the same seam on both, and drives one through
// Read/Write with explicit slices and the other through the typed
// accessors. Both must return the same values and faults, leave the
// same bytes, and produce the same sequence of seam calls.

const (
	accData = Addr(0x10000) // rw-, three pages
	accRO   = Addr(0x20000) // r--, one page
	accWO   = Addr(0x30000) // -w-, one page
)

// accLog records every seam invocation in order.
type accLog []string

func (l *accLog) add(format string, args ...any) { *l = append(*l, fmt.Sprintf(format, args...)) }

// accShadow is a ShadowChecker that logs each check and rejects writes
// touching one poisoned byte.
type accShadow struct {
	log    *accLog
	poison Addr
}

func (s *accShadow) CheckWrite(addr Addr, n uint64) *Fault {
	s.log.add("shadow %#x %d", uint64(addr), n)
	if s.poison >= addr && s.poison < addr.Add(int64(n)) {
		return &Fault{Kind: FaultShadow, Addr: s.poison, Size: n, Shadow: "test-poison"}
	}
	return nil
}

func (s *accShadow) Snapshot() any { return nil }
func (s *accShadow) Restore(any)   {}

// accessorCase arms one or more seams on m, then the accesses run at
// addr with every width.
type accessorCase struct {
	name string
	addr Addr
	cow  bool // take a COW checkpoint first, so the stores copy shared pages
	arm  func(m *Memory, log *accLog, addr Addr)
}

func armObserver(m *Memory, log *accLog, _ Addr) {
	m.SetAccessObserver(func(k AccessKind, a Addr, n uint64) { log.add("obs %s %#x %d", k, uint64(a), n) })
}

func armMut(m *Memory, log *accLog, _ Addr) {
	m.SetMutObserver(func(a Addr, n uint64) { log.add("mut %#x %d", uint64(a), n) })
}

func armHook(d func(k AccessKind, data []byte) HookDecision) func(*Memory, *accLog, Addr) {
	return func(m *Memory, log *accLog, _ Addr) {
		m.SetAccessHook(func(k AccessKind, a Addr, data []byte) HookDecision {
			log.add("hook %s %#x %x", k, uint64(a), data)
			return d(k, data)
		})
	}
}

func accessorCases() []accessorCase {
	base := accData.Add(0x10)
	straddle := accData.Add(PageSize - 1) // widths 2, 4 and 8 cross a page
	return []accessorCase{
		{name: "no-seam", addr: base},
		{name: "observer", addr: base, arm: armObserver},
		{name: "mutation-observer", addr: base, arm: armMut},
		{name: "hook-pass", addr: base, arm: armHook(func(AccessKind, []byte) HookDecision { return HookDecision{} })},
		{name: "hook-fault", addr: base, arm: armHook(func(k AccessKind, _ []byte) HookDecision {
			return HookDecision{Fault: &Fault{Kind: FaultPerm, Addr: base, Size: 1, Want: PermRead}}
		})},
		{name: "hook-drop", addr: base, arm: armHook(func(k AccessKind, _ []byte) HookDecision {
			return HookDecision{Drop: k == AccessWrite}
		})},
		{name: "hook-replace", addr: base, arm: armHook(func(k AccessKind, data []byte) HookDecision {
			if k == AccessRead { // transient corruption: every bit flipped
				r := make([]byte, len(data))
				for i, b := range data {
					r[i] = ^b
				}
				return HookDecision{Replace: r}
			}
			// torn store: only the first half lands
			return HookDecision{Replace: append([]byte(nil), data[:(len(data)+1)/2]...)}
		})},
		{name: "shadow", addr: base, arm: func(m *Memory, log *accLog, a Addr) {
			m.SetShadow(&accShadow{log: log, poison: a.Add(1)})
		}},
		{name: "guard", addr: base, arm: func(m *Memory, _ *accLog, a Addr) {
			m.Guard("redzone", a.Add(2), 1)
		}},
		{name: "write-logger", addr: base, arm: func(m *Memory, log *accLog, _ Addr) {
			m.SetWriteLogger(func(r WriteRecord) { log.add("log %#x %x -> %x", uint64(r.Addr), r.Old, r.New) })
		}},
		{name: "watchpoint", addr: base, arm: func(m *Memory, log *accLog, a Addr) {
			m.Watch("victim", a.Add(3), 1, func(w *Watchpoint, at Addr, old, new []byte) {
				log.add("watch %s %#x %x -> %x hits=%d", w.Name, uint64(at), old, new, w.Hits)
			})
		}},
		{name: "every-seam", addr: base, arm: func(m *Memory, log *accLog, a Addr) {
			armObserver(m, log, a)
			armMut(m, log, a)
			m.SetShadow(&accShadow{log: log, poison: a.Add(64)})
			m.Guard("far", a.Add(128), 8)
			armHook(func(AccessKind, []byte) HookDecision { return HookDecision{} })(m, log, a)
			m.SetWriteLogger(func(r WriteRecord) { log.add("log %#x %x -> %x", uint64(r.Addr), r.Old, r.New) })
			m.Watch("all", a, 8, nil)
		}},
		{name: "observer-shadow-guard-mut", addr: base, arm: func(m *Memory, log *accLog, a Addr) {
			armObserver(m, log, a)
			armMut(m, log, a)
			m.SetShadow(&accShadow{log: log, poison: a.Add(5)})
			m.Guard("redzone", a.Add(3), 1)
		}},
		{name: "perm-read-fault", addr: accWO.Add(8), arm: armObserver},
		{name: "perm-write-fault", addr: accRO.Add(8), arm: armObserver},
		{name: "unmapped", addr: Addr(0x50000), arm: armObserver},
		{name: "segment-end", addr: accData.Add(3*PageSize - 2), arm: armObserver},
		{name: "page-straddle", addr: straddle, arm: armMut},
		{name: "page-straddle-cow", addr: straddle, cow: true, arm: armMut},
		{name: "page-straddle-watch", addr: straddle, cow: true, arm: func(m *Memory, log *accLog, a Addr) {
			m.Watch("next-page", accData.Add(PageSize), 1, func(w *Watchpoint, at Addr, old, new []byte) {
				log.add("watch %s %#x %x -> %x", w.Name, uint64(at), old, new)
			})
		}},
	}
}

// accMemory builds the case's address space with a byte pattern loaded
// and its seams armed.
func accMemory(t *testing.T, c accessorCase, log *accLog) *Memory {
	t.Helper()
	m := &Memory{}
	for _, s := range []struct {
		kind SegKind
		base Addr
		n    uint64
		perm Perm
	}{{SegData, accData, 3 * PageSize, PermRW}, {SegROData, accRO, PageSize, PermRead}, {SegBSS, accWO, PageSize, PermWrite}} {
		if _, err := m.Map(s.kind, s.base, s.n, s.perm); err != nil {
			t.Fatal(err)
		}
		pat := make([]byte, s.n)
		for i := range pat {
			pat[i] = byte(i*7 + 3)
		}
		if err := m.Poke(s.base, pat); err != nil {
			t.Fatal(err)
		}
	}
	if c.cow {
		m.CowCheckpoint()
	}
	if c.arm != nil {
		c.arm(m, log, c.addr)
	}
	return m
}

// accResult renders a value/error pair; faults render with their kind.
func accResult(v uint64, err error) string {
	if err != nil {
		if f, ok := IsFault(err); ok {
			return fmt.Sprintf("fault(%d) %v", f.Kind, err)
		}
		return "error " + err.Error()
	}
	return fmt.Sprintf("%#x", v)
}

// accessor is one of the two paths under comparison.
type accessor struct {
	read  func(m *Memory, addr Addr, width int) (uint64, error)
	write func(m *Memory, addr Addr, v uint64, width int) error
}

var sliceAccessor = accessor{
	read: func(m *Memory, addr Addr, width int) (uint64, error) {
		b, err := m.Read(addr, uint64(width))
		if err != nil {
			return 0, err
		}
		var v uint64
		for i := width - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v, nil
	},
	write: func(m *Memory, addr Addr, v uint64, width int) error {
		b := make([]byte, width)
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		return m.Write(addr, b)
	},
}

var typedAccessor = accessor{
	read:  (*Memory).ReadUint,
	write: (*Memory).WriteUint,
}

// accRun drives one path through read, write, read at every width and
// returns the results, the seam log, and the final memory contents.
func accRun(t *testing.T, c accessorCase, a accessor) (results, log []string, mem string) {
	t.Helper()
	var l accLog
	m := accMemory(t, c, &l)
	for _, width := range []int{1, 2, 4, 8} {
		v := uint64(0x1122334455667788) ^ uint64(width) // both paths truncate to width
		results = append(results,
			fmt.Sprintf("w%d read  %s", width, accResult(a.read(m, c.addr, width))),
			fmt.Sprintf("w%d write %s", width, accResult(0, a.write(m, c.addr, v, width))),
			fmt.Sprintf("w%d read  %s", width, accResult(a.read(m, c.addr, width))))
	}
	var sb strings.Builder
	for _, s := range m.Segments() {
		fmt.Fprintf(&sb, "%s %x\n", s.Kind, s.bytes())
	}
	return results, l, sb.String()
}

func TestTypedAccessorsMatchSlicePipeline(t *testing.T) {
	for _, c := range accessorCases() {
		t.Run(c.name, func(t *testing.T) {
			wantRes, wantLog, wantMem := accRun(t, c, sliceAccessor)
			gotRes, gotLog, gotMem := accRun(t, c, typedAccessor)
			if d := firstDiff(gotRes, wantRes); d != "" {
				t.Errorf("results differ: %s", d)
			}
			if d := firstDiff(gotLog, wantLog); d != "" {
				t.Errorf("seam calls differ: %s", d)
			}
			if gotMem != wantMem {
				t.Error("memory contents differ after the same accesses")
			}
		})
	}
}

// firstDiff describes the first index at which got and want disagree.
func firstDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("at %d: typed %q, slice %q", i, g, w)
		}
	}
	return ""
}

// TestTypedAccessorsDoNotAllocate pins the point of the typed path: a
// scalar load or store on an owned page with no hook, write logger or
// watchpoint armed allocates nothing.
func TestTypedAccessorsDoNotAllocate(t *testing.T) {
	m, seg := newTestMem(t)
	addr := seg.Base.Add(8)
	if err := m.WriteU32(addr, 1); err != nil {
		t.Fatal(err)
	}
	var sink uint32
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.WriteU32(addr, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		v, err := m.ReadU32(addr)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	if allocs != 0 {
		t.Fatalf("WriteU32+ReadU32 allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}
