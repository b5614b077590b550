package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// latencies collects per-operation durations of one client; merge the
// clients' slices before taking quantiles.
type latencies []time.Duration

// quantile returns the q-quantile (0..1) of d, by nearest rank. d is sorted
// in place.
func quantile(d latencies, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(q*float64(len(d))+0.5) - 1
	return d[max(0, min(i, len(d)-1))]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Host speed. On a shared machine the speed of every CPU-bound operation
// moves by tens of percent for minutes at a time, as other tenants load the
// cores and caches it shares. calibrate times a fixed loop of the
// benchmark's own code, which shares no code with the program, right before
// and after each timed slice and set-up. A time measured between two
// calibrations is scaled to the time it would have taken with the loop at
// refCalibration, its usual time on the machine README.md's numbers come
// from. A slower host slows the loop and the program alike and the scaled
// time stays; a slower program slows only the program and the scaled time
// moves. Run reports print the unscaled times too, under raw.*.

// refCalibration is calibrate's usual time on the reference machine.
const refCalibration = 15 * time.Millisecond

// calKeys is the sorted table the calibration loop searches: 512 KiB, so
// it stays in a core's own cache.
var calKeys = func() []float64 {
	k := make([]float64, 1<<16)
	for i := range k {
		k[i] = float64(i) * 1.5
	}
	return k
}()

var calSink int

// calibrate runs 100,000 binary searches for pseudo-random keys in calKeys
// and returns how long they took.
func calibrate() time.Duration {
	t0 := time.Now()
	x, sum := uint64(88172645463325252), 0
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += sort.SearchFloat64s(calKeys, float64(x%(1<<17))*0.75)
	}
	calSink += sum
	return time.Since(t0)
}

// hostSpeed returns the factor that scales a time measured between two
// calibrations that took c0 and c1 to the reference machine's speed.
func hostSpeed(c0, c1 time.Duration) float64 {
	return float64(2*refCalibration) / float64(c0+c1)
}

// timeSetup runs build reps times and returns the median of the durations
// it reports, each scaled to the reference host speed, and the median of
// the unscaled durations. build keeps what it built in its closure,
// dropping the previous repetition's first, so the last repetition is the
// one the run measures.
func timeSetup(reps int, build func() (time.Duration, error)) (scaled, raw float64, err error) {
	var secs, raws []float64
	for i := 0; i < reps; i++ {
		c0 := calibrate()
		d, err := build()
		if err != nil {
			return 0, 0, err
		}
		// The build's garbage is collected before the second calibration,
		// not during it.
		runtime.GC()
		f := hostSpeed(c0, calibrate())
		secs = append(secs, d.Seconds()*f)
		raws = append(raws, d.Seconds())
	}
	return median(secs), median(raws), nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// wchar returns the bytes this process has handed to write-family system
// calls so far, from /proc/self/io.
func wchar() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/io has no wchar line")
}

// measureSlices is how many slices a timed phase is cut into: a run reports
// the median of each read metric over its slices, so a burst of outside
// load during one slice does not move the result.
const measureSlices = 20

// readMetrics summarises the reads of one slice, with its times scaled by
// the host speed f and, under raw.*, unscaled.
func readMetrics(lats latencies, elapsed time.Duration, f float64) map[string]float64 {
	m := map[string]float64{
		"raw.read_ops_per_s": float64(len(lats)) / elapsed.Seconds(),
		"raw.read_p50_us":    us(quantile(lats, 0.50)),
		"raw.read_p95_us":    us(quantile(lats, 0.95)),
		"raw.read_p99_us":    us(quantile(lats, 0.99)),
		"host.speed":         f,
	}
	m["read_ops_per_s"] = m["raw.read_ops_per_s"] / f
	for _, name := range []string{"read_p50_us", "read_p95_us", "read_p99_us"} {
		m[name] = m["raw."+name] * f
	}
	return m
}

// sliced runs measure once per slice of d, one slice after another, each
// between two calibrations, and returns the median of each read metric over
// the slices and the number of reads. measure runs the workload for the
// given time and returns its read latencies and how long it took.
func sliced(d time.Duration, measure func(time.Duration) (latencies, time.Duration, error)) (map[string]float64, int, error) {
	var per []map[string]float64
	reads := 0
	for i := 0; i < measureSlices; i++ {
		c0 := calibrate()
		lats, elapsed, err := measure(d / measureSlices)
		if err != nil {
			return nil, 0, err
		}
		per = append(per, readMetrics(lats, elapsed, hostSpeed(c0, calibrate())))
		reads += len(lats)
	}
	out := map[string]float64{}
	for name := range per[0] {
		var xs []float64
		for _, m := range per {
			xs = append(xs, m[name])
		}
		out[name] = median(xs)
	}
	return out, reads, nil
}

// splitMeasure splits the timed phase: a traced run measures the workload
// untraced for the first half and traced for the second, so the trace's
// overhead is the difference between the two halves. An untraced run
// measures for the whole phase.
func splitMeasure(cfg *config) time.Duration {
	if cfg.tracer != nil {
		return cfg.measure / 2
	}
	return cfg.measure
}
