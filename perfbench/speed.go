package main

import (
	"encoding/json"
	"time"
)

// The machine's speed is measured with a fixed reference computation:
// indent-encoding and decoding a response-shaped document with the
// standard library. It shares no code with the program under test, so
// no change to the program moves it, but it slows down with the
// program when other tenants of a shared host contend for the core and
// its caches. Timing figures are scaled by speed/refNominal, which
// cancels most of that drift (README.md, "Steadiness").

// refNominal is the reference's rate, in documents per second, that
// speed factors are relative to: about its rate on a quiet 2-vCPU
// Sapphire Rapids guest.
const refNominal = 25000

// refSpan is how long one speed sample runs the reference.
const refSpan = 20 * time.Millisecond

type refDoc struct {
	Key     string             `json:"key"`
	Status  string             `json:"status"`
	Table   [][]string         `json:"table"`
	Details []string           `json:"details"`
	Metrics map[string]float64 `json:"metrics"`
}

var refInput = func() refDoc {
	d := refDoc{Key: "5f2b8c0e9d7a41e3b6c5d4f3a2b1c0d9", Status: "SUCCESS", Metrics: map[string]float64{}}
	for i := 0; i < 12; i++ {
		d.Table = append(d.Table, []string{"metric bytes_overflowed", "1.5e+02"})
		d.Details = append(d.Details, "placement new wrote past the end of the arena")
		d.Metrics[string(rune('a'+i))+"_bytes"] = float64(i) * 1.5
	}
	return d
}()

// speed runs the reference for refSpan and returns the machine's speed
// relative to refNominal: 1 on a quiet machine, 0.5 when it runs at
// half speed.
func speed() float64 {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < refSpan {
		b, err := json.MarshalIndent(refInput, "", "  ")
		var out refDoc
		if err == nil {
			err = json.Unmarshal(b, &out)
		}
		if err != nil || len(out.Table) != len(refInput.Table) {
			panic("perfbench: reference document does not round-trip")
		}
		n++
	}
	return float64(n) / time.Since(t0).Seconds() / refNominal
}
