// Package repro is a from-scratch reproduction of "A New Class of Buffer
// Overflow Attacks" (Kundu & Bertino, ICDCS 2011): the C++ placement-new
// buffer overflow class, demonstrated on a simulated 32-bit process and
// crossed against the paper's §5 protection techniques.
//
// The library lives under internal/:
//
//   - internal/mem      — simulated virtual address space (segments, MMU)
//   - internal/layout   — C++ object layout (inheritance, vptr, padding)
//   - internal/vtab     — virtual-table construction
//   - internal/heap     — free-list heap allocator
//   - internal/stackm   — call stack with saved FP / StackGuard canary
//   - internal/object   — typed object views (unchecked, like C++)
//   - internal/core     — placement new, checked placement, pools, leaks
//   - internal/machine  — the victim process: calls, hijack dispatch, NX
//   - internal/serial   — remote-object wire format and deserializers
//   - internal/attack   — the 29-scenario attack catalogue (§3–§4)
//   - internal/defense  — defense configurations (§5)
//   - internal/analyzer — the §7 static-analysis tool + baseline scanner
//   - internal/experiments, internal/report — the E1–E19 harness
//
// Binaries: cmd/pnattack, cmd/pnscan, cmd/pnbench. Runnable examples:
// examples/quickstart, examples/webservice, examples/infoleak,
// examples/memorypool. See README.md, DESIGN.md and EXPERIMENTS.md.
package repro

// Version identifies the reproduction release.
const Version = "1.0.0"
