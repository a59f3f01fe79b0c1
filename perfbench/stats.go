package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was measured (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes returns the cumulative bytes allocated on the heap
// (runtime.MemStats.TotalAlloc, read without stopping the world).
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// window is one fixed slice of a measured phase: its bounds, the process
// CPU time spent in it, and the peak live heap (the heap marked live by the
// most recent GC) seen in it.
type window struct {
	start, end time.Time
	cpu        time.Duration
	heapPeakMB float64
}

// sampler cuts a measured phase into fixed windows, sampling the live heap
// every 10 ms. Medians over windows keep a short burst of host noise from
// moving a whole run's figure.
type sampler struct {
	every time.Duration
	stop  chan struct{}
	done  chan struct{}
	wins  []window
}

func startSampler(every time.Duration) *sampler {
	sp := &sampler{every: every, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sp.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		cur := window{start: time.Now()}
		cpu0 := cpuTime()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()) / 1e6; v > cur.heapPeakMB {
				cur.heapPeakMB = v
			}
			stopped := false
			select {
			case <-sp.stop:
				stopped = true
			case <-t.C:
			}
			if now := time.Now(); stopped || now.Sub(cur.start) >= sp.every {
				cpu := cpuTime()
				cur.end, cur.cpu = now, cpu-cpu0
				sp.wins = append(sp.wins, cur)
				cur, cpu0 = window{start: now}, cpu
			}
			if stopped {
				return
			}
		}
	}()
	return sp
}

// Stop ends sampling and returns the windows, the last one partial.
func (sp *sampler) Stop() []window {
	close(sp.stop)
	<-sp.done
	return sp.wins
}

// medianHeapPeak is the median over windows of each window's peak live
// heap, in MB.
func medianHeapPeak(wins []window) float64 {
	var peaks []float64
	for _, w := range wins {
		peaks = append(peaks, w.heapPeakMB)
	}
	return median(peaks)
}
