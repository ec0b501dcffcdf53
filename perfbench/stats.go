package main

import (
	"bufio"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cost is what one op took: wall time, and CPU time (user + system) of the
// whole process, which counts every goroutine the op ran but not the time
// the host took the CPUs away.
type cost struct{ wall, cpu time.Duration }

// stopwatch reads both clocks at its start.
type stopwatch struct {
	t   time.Time
	cpu time.Duration
}

func startWatch() stopwatch { return stopwatch{t: time.Now(), cpu: processCPU()} }

func (s stopwatch) stop() cost { return cost{wall: time.Since(s.t), cpu: processCPU() - s.cpu} }

// processCPU returns the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is left unmodified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice.
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

// ratio is a/b, or 0 when b is 0 — metrics must stay finite JSON numbers.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histogram is a fixed-bucket log-linear duration histogram: 16 linear
// sub-buckets per power of two of nanoseconds, so any quantile it reports
// is within 1/16 of the true value. Add is lock-free, which lets it sit
// on the transport.Send boundary without serializing senders.
type histogram struct {
	buckets [64 * histSub]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

const histSub = 16

// bucketOf maps a non-negative nanosecond count to its bucket index.
func bucketOf(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 5 // ns>>exp lies in [16, 32)
	return (exp+1)*histSub + int(ns>>uint(exp)) - histSub
}

// bucketUpper is the largest nanosecond count bucket i holds.
func bucketUpper(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	mant := int64(i%histSub + histSub)
	return (mant+1)<<uint(exp) - 1
}

func (h *histogram) Add(d time.Duration) {
	ns := int64(d)
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Quantile returns the upper edge of the bucket holding the q-quantile.
func (h *histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(len(h.buckets) - 1))
}

// Buckets returns the non-empty buckets as (upper edge ns, count) pairs.
func (h *histogram) Buckets() [][2]int64 {
	var out [][2]int64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			out = append(out, [2]int64{bucketUpper(i), c})
		}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// host is the fingerprint printed with every result, so a reader can tell
// a slower host from a regression.
type host struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	CalibMS    float64 `json:"calib_ms"`
}

// calibSink keeps calibrate's result live so the loop is not optimized away.
var calibSink float64

// calibrate times a fixed reference computation — a 2^21-step xorshift
// feeding a float accumulation, no allocation, no syscalls — and returns
// the median of five runs in milliseconds.
func calibrate() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		acc := 0.0
		for i := 0; i < 1<<21; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += float64(x>>40) * 1e-6
		}
		calibSink += acc
		runs = append(runs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return median(runs)
}

func hostFingerprint(seed int64, calibMS float64) host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Seed:       seed,
		CalibMS:    calibMS,
	}
}
