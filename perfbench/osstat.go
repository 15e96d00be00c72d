package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// osSample is one reading of this process's OS-level counters.
type osSample struct {
	cpu    time.Duration // user + system CPU
	nvcsw  int64         // voluntary context switches (blocking waits: the OS wakeups)
	nivcsw int64         // involuntary context switches (preemptions)
	maxRSS int64         // peak resident set, KiB
	rqWait time.Duration // summed run-queue wait over live threads (schedstat)
}

func readOS() osSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	wait := schedWait()
	return osSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		nvcsw:  ru.Nvcsw,
		nivcsw: ru.Nivcsw,
		maxRSS: ru.Maxrss,
		rqWait: wait,
	}
}

// schedWait sums the run-queue wait (second field of schedstat) over
// every thread of this process. Threads that exited take their share
// with them; Go keeps its Ms alive, so the loss is negligible.
func schedWait() time.Duration {
	paths, _ := filepath.Glob("/proc/self/task/*/schedstat")
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) < 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			total += v
		}
	}
	return time.Duration(total)
}

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quantileInt64 returns the q-quantile of xs, sorting xs in place.
func quantileInt64(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)-1))
	return xs[i]
}

func perK(n, items float64) float64 {
	if items <= 0 {
		return 0
	}
	return 1000 * n / items
}
