package main

import (
	"runtime"
	"time"
)

// The reference host is a shared 2-vCPU VM whose throughput swings by up
// to 2x over tens of seconds to minutes (other tenants of the machine):
// the same deterministic optimization took 2.0 s in one minute and
// 3.8-4.8 s a few minutes later, and every phase of it slowed by the
// same factor. Raw wall and CPU times therefore spread 15-45%
// between runs of identical work, more than any bound the benchmark may
// set.
//
// The benchmark measures that swing with a fixed kernel of its own code,
// run between the operations of a run, and reports its time metrics in
// reference seconds: raw time divided by the run's slow-down, the median
// kernel time over calibRefSeconds. The kernel does not call into the
// program, so a change to the program moves the normalized figures as
// much as the raw ones. Raw figures are printed beside them and kept in
// --out reports.

// calibRefSeconds is the kernel's time on the reference host when it is
// quiet; it only fixes the scale of a reference second.
const calibRefSeconds = 0.03

var calibSink uint64

// calibTable is the kernel's 8 MiB lookup table: beyond the per-core L2
// cache, so table walks exercise the shared cache the way the optimizer's
// netlist walks do.
var calibTable = func() []uint32 {
	const n = 1 << 21
	t := make([]uint32, n)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = uint32(x) & (n - 1)
	}
	return t
}()

// calibKernel runs a fixed mix of independent integer chains, four
// interleaved table walks and small allocations, and returns its wall
// time in seconds.
func calibKernel() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 4_000_000; i++ {
		a ^= a << 13
		a ^= a >> 7
		b ^= b << 13
		b ^= b >> 7
		c ^= c << 13
		c ^= c >> 7
		d ^= d << 13
		d ^= d >> 7
	}
	j0, j1, j2, j3 := uint32(0), uint32(1), uint32(2), uint32(3)
	for i := 0; i < 1_000_000; i++ {
		j0 = calibTable[j0] ^ 1
		j1 = calibTable[j1] ^ 2
		j2 = calibTable[j2] ^ 3
		j3 = calibTable[j3] ^ 5
	}
	type node struct {
		next *node
		v    [4]uint64
	}
	var head *node
	for i := 0; i < 200_000; i++ {
		n := &node{next: head}
		n.v[i&3] = a
		head = n
		if i%64 == 63 {
			calibSink += head.v[0]
			head = nil
		}
	}
	calibSink += a + b + c + d + uint64(j0+j1+j2+j3)
	return time.Since(t0).Seconds()
}

// gauge collects kernel samples over one run.
type gauge struct {
	samples []float64
}

// samplesPerPoint is how many kernel runs one sample point makes: a
// single ~35 ms run catches millisecond hiccups of the host that
// operations lasting seconds average out.
const samplesPerPoint = 3

// sample runs the kernel on a collected heap, so garbage left by the
// previous operation is neither billed to the kernel nor to the next
// operation. It returns the seconds it took, collection included; a nil
// gauge (the traced run) takes no samples.
func (g *gauge) sample() float64 {
	if g == nil {
		return 0
	}
	t0 := time.Now()
	runtime.GC()
	for i := 0; i < samplesPerPoint; i++ {
		g.samples = append(g.samples, calibKernel())
	}
	return time.Since(t0).Seconds()
}

// slowdown is the run's median kernel time over the reference time: 1
// on a quiet reference host, 2 when the host runs at half speed.
func (g *gauge) slowdown() float64 {
	if len(g.samples) == 0 {
		return 1
	}
	return median(g.samples) / calibRefSeconds
}
