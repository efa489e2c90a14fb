package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// The reference VM is a guest on a shared host whose speed moves between
// regimes that last from half a minute to many minutes: the same seed of
// serve-stream ran at 134 and at 222 queries/s within the hour, with CPU
// time per query moving in step and next to no steal time reported, so
// neither a longer run nor a median inside the run sheds it. hostPace
// measures the regime instead: a fixed piece of work of the benchmark's own
// — none of the repository's code, so that no later change to the engine
// can move it — timed next to every stretch of measured work. A gated
// timing is reported at the reference pace: multiplied by
// referencePaceMS ÷ (the pace samples on either side of it), wall-clock
// timings by the kernel's wall time and CPU times by its CPU time (a host
// that takes the processor away stretches the first and not the second;
// one that shares a core's execution units stretches both). In forty
// minutes of one engine run after another this took the spread between
// 30-second windows from 14–20 % to 6–7 % (README.md, "How steady the
// numbers are"); the raw timings are printed beside the adjusted ones.

// referencePaceMS is what one pace sample takes on the reference VM in its
// usual state, so that adjusted and raw numbers agree there.
const referencePaceMS = 50.0

// pacePoint is one 4-dimensional point of the pace kernel.
type pacePoint [4]float64

// hostPace is the pace kernel: two block-nested-loop skylines, the engine's
// own kind of work (a dominance test per window entry, a window that is
// compacted in place). One runs over points packed in an array that stays
// in cache; the other reaches the same kind of points through pointers
// scattered 16 KiB apart over 20 MB, so that every test misses the cache
// as the engine's do on a window of join results. Neither allocates.
type hostPace struct {
	packed    []pacePoint
	window    []pacePoint
	scattered []*pacePoint
	pwindow   []*pacePoint
	want      [2]int // the two skyline sizes, fixed by the first sample
}

const (
	pacePacked    = 2000
	paceScattered = 1200
	paceStride    = 512 // points between two scattered ones: 16 KiB
)

// newHostPace builds the kernel's inputs from a fixed seed — the same work
// in every run, whatever --seed says — and runs it once so that the first
// real sample finds its pages mapped.
func newHostPace() *hostPace {
	rng := rand.New(rand.NewSource(1))
	// Anti-correlated points: the skyline, and with it the window, is large.
	draw := func(p *pacePoint) {
		sum := 0.0
		for d := 0; d < 3; d++ {
			p[d] = rng.Float64()
			sum += p[d]
		}
		p[3] = 3 - sum + 0.3*rng.Float64()
	}
	h := &hostPace{
		packed:    make([]pacePoint, pacePacked),
		window:    make([]pacePoint, 0, pacePacked),
		scattered: make([]*pacePoint, paceScattered),
		pwindow:   make([]*pacePoint, 0, paceScattered),
	}
	for i := range h.packed {
		draw(&h.packed[i])
	}
	arena := make([]pacePoint, paceScattered*paceStride)
	for i, slot := range rng.Perm(paceScattered) {
		h.scattered[i] = &arena[slot*paceStride]
		draw(h.scattered[i])
	}
	h.want = [2]int{h.packedSkyline(), h.scatteredSkyline()}
	return h
}

// paceDominance reports whether q dominates p and whether p dominates q
// (smaller is better in every dimension).
func paceDominance(q, p *pacePoint) (qp, pq bool) {
	qLE, qLT, pLE, pLT := true, false, true, false
	for d := range q {
		if q[d] > p[d] {
			qLE, pLT = false, true
		} else if q[d] < p[d] {
			qLT, pLE = true, false
		}
	}
	return qLE && qLT, pLE && pLT
}

func (h *hostPace) packedSkyline() int {
	win := h.window[:0]
	for i := range h.packed {
		p := &h.packed[i]
		dominated := false
		k := 0
		for j := range win {
			qp, pq := paceDominance(&win[j], p)
			if qp {
				dominated = true
				break
			}
			if !pq {
				win[k] = win[j]
				k++
			}
		}
		if !dominated {
			win = append(win[:k], *p)
		}
	}
	return len(win)
}

func (h *hostPace) scatteredSkyline() int {
	win := h.pwindow[:0]
	for _, p := range h.scattered {
		dominated := false
		k := 0
		for _, q := range win {
			qp, pq := paceDominance(q, p)
			if qp {
				dominated = true
				break
			}
			if !pq {
				win[k] = q
				k++
			}
		}
		if !dominated {
			win = append(win[:k], p)
		}
	}
	return len(win)
}

// paceSample is how long one run of the kernel took, in ms: by the wall
// clock, and in CPU time of the thread that ran it.
type paceSample struct{ wall, cpu float64 }

// threadCPU returns the CPU time the calling thread has consumed so far.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails on a bad argument only
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample runs the kernel once.
func (h *hostPace) sample() paceSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, start := threadCPU(), time.Now()
	got := [2]int{h.packedSkyline(), h.scatteredSkyline()}
	s := paceSample{wall: ms(time.Since(start)), cpu: ms(threadCPU() - cpu0)}
	if got != h.want {
		panic(fmt.Sprintf("pace kernel: skylines of %v points, were %v", got, h.want))
	}
	return s
}

// paceFactor is what a timing measured between two pace samples is
// multiplied by (and a rate divided by) to state it at the reference pace:
// wall for what the wall clock timed, cpu for CPU times.
type paceFactor struct{ wall, cpu float64 }

func paceBetween(before, after paceSample) paceFactor {
	return paceFactor{
		wall: referencePaceMS / ((before.wall + after.wall) / 2),
		cpu:  referencePaceMS / ((before.cpu + after.cpu) / 2),
	}
}
