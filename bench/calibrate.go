package main

import (
	"sort"
	"strconv"
	"time"
)

// kernelReferenceMS is how long the calibration kernel takes on the sizing
// box (README.md "Sizing") when the box is quiet.
const kernelReferenceMS = 2.0

// calibration times a fixed piece of benchmark-owned work — a pointer chase
// over 8 MiB, a sort and a string-keyed map fill, about 2 ms — in between the
// measured operations, so that a run knows how fast the box was while each
// phase ran. The sizing box changes speed by 20–30 % for minutes at a time
// (shared host); end-to-end times and rates are reported at the reference
// speed, measured value ÷ or × slowdown, which halves their run-to-run
// spread. The kernel touches no program code, so no change to the program
// can move it.
type calibration struct {
	next    []uint32
	scratch []int
	samples []float64 // kernel durations since the last slowdown call, ms
	// total is all the time spent in the kernel, which CPU accounting
	// subtracts.
	total time.Duration
	sink  int
}

func newCalibration() *calibration {
	c := &calibration{next: make([]uint32, 2<<20), scratch: make([]int, 2048)}
	for i := range c.next {
		c.next[i] = uint32((i*1664525 + 1013904223) % len(c.next))
	}
	return c
}

// run executes the kernel once and records how long it took.
func (c *calibration) run() {
	t0 := time.Now()
	i, acc := uint32(0), 0
	for n := 0; n < 10000; n++ {
		i = c.next[i]
		acc += int(i)
	}
	for n := range c.scratch {
		i = c.next[i]
		c.scratch[n] = int(i)
	}
	sort.Ints(c.scratch)
	m := make(map[string]int, 512)
	for n := 0; n < 512; n++ {
		m[strconv.Itoa(c.scratch[n])] = n
	}
	c.sink += acc + len(m)
	d := time.Since(t0)
	c.samples = append(c.samples, millis(d))
	c.total += d
}

// slowdown returns how much slower than the reference the box ran since the
// last call: the median kernel time over the reference time (1 when the
// kernel did not run).
func (c *calibration) slowdown() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	f := median(c.samples) / kernelReferenceMS
	c.samples = c.samples[:0]
	return f
}
