// Quickstart: predict a value stream with the paper's three predictor
// families and compare their accuracy.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
)

func main() {
	// A value stream as a (pc, value) sequence: three static
	// instructions with different behaviour, interleaved as they would
	// be in a loop body.
	//   pc 0x40: a loop induction variable (stride +4)
	//   pc 0x44: a repeated non-stride pattern (pointer chasing a ring)
	//   pc 0x48: a constant (loop-invariant load)
	ring := []uint64{0x8000, 0x8040, 0x8010, 0x8030}
	type event struct{ pc, value uint64 }
	var stream []event
	for i := 0; i < 400; i++ {
		stream = append(stream,
			event{0x40, uint64(4 * i)},
			event{0x44, ring[i%len(ring)]},
			event{0x48, 1234},
		)
	}

	predictors := []core.Predictor{
		core.NewLastValue(),    // computational: identity
		core.NewStride2Delta(), // computational: last + stride (2-delta)
		core.NewFCM(3),         // context based: order-3 fcm
	}

	fmt.Println("predictor  accuracy")
	for _, p := range predictors {
		var acc core.Accuracy
		for _, ev := range stream {
			pred, ok := p.Predict(ev.pc)
			acc.Observe(ok && pred == ev.value)
			p.Update(ev.pc, ev.value) // immediate update, as in the paper
		}
		fmt.Printf("%-9s  %6.2f%%\n", p.Name(), acc.Percent())
	}

	fmt.Println()
	fmt.Println("Expected shape: last value only gets the constant (~33%); stride adds the")
	fmt.Println("induction variable and a bit of the ring (~75%); fcm gets constant + ring")
	fmt.Println("but not the unbounded stride (~67%).")
}
