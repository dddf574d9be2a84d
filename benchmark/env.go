package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// envInfo is the host description recorded with every run, so two result
// sets can be told apart by more than their numbers.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Caches lists cpu0's caches as "L<level> <type> <size>".
	Caches []string `json:"caches"`
	// LLCBytes is the size of cpu0's highest-level cache; 0 when /sys does
	// not describe the caches.
	LLCBytes          int64 `json:"llc_bytes"`
	MemAvailableBytes int64 `json:"mem_available_bytes"`
}

func readEnv() envInfo {
	e := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	topLevel := 0
	for _, d := range dirs {
		level, _ := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		typ, size := readTrim(filepath.Join(d, "type")), readTrim(filepath.Join(d, "size"))
		if level == 0 || size == "" {
			continue
		}
		e.Caches = append(e.Caches, fmt.Sprintf("L%d %s %s", level, typ, size))
		if level > topLevel && typ != "Instruction" {
			topLevel, e.LLCBytes = level, parseSize(size)
		}
	}
	e.MemAvailableBytes = memAvailable()
	return e
}

func readTrim(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// parseSize reads a /sys cache size such as "2048K" or "260M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// memAvailable reads MemAvailable from /proc/meminfo; 0 when absent.
func memAvailable() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "MemAvailable:" {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// calibration is the noise guard's reading of the host: the rate of a fixed
// single-thread integer loop, and the rate one thread reads a 32 MiB array
// at (larger than L2, inside the last-level cache on the reference host —
// the kernels' regime). The integer loop alone is not enough: while this
// benchmark was built the host had a 200 s spell in which every kernel ran
// 25% slower and the integer loop lost 5%.
type calibration struct {
	SpinMops  float64 `json:"spin_mops"`
	StreamGBs float64 `json:"stream_gbs"`
}

// calSink keeps the calibration loops' results live; atomic because the
// drift test calibrates from several goroutines.
var calSink atomic.Uint64

// calibrate spends about d, half on each loop. Run at the start and the end
// of a run, it tells a stolen or throttled CPU from a slower program. The
// array is dropped on return, so it is not part of any measured heap.
func calibrate(d time.Duration) calibration {
	var c calibration
	const chunk = 1 << 16
	x := uint64(88172645463325252)
	var iters int64
	start := time.Now()
	for time.Since(start) < d/2 {
		for i := 0; i < chunk; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		iters += chunk
	}
	c.SpinMops = float64(iters) / time.Since(start).Seconds() / 1e6

	arr := make([]uint64, 4<<20)
	for i := range arr {
		arr[i] = uint64(i)
	}
	var sum uint64
	passes := 0
	start = time.Now()
	for time.Since(start) < d/2 {
		for _, v := range arr {
			sum += v
		}
		passes++
	}
	c.StreamGBs = float64(passes) * float64(len(arr)*8) / time.Since(start).Seconds() / 1e9
	calSink.Store(x + sum)
	return c
}

// differs reports whether either reading moved by more than 10% between
// two calibrations.
func (c calibration) differs(o calibration) bool {
	far := func(a, b float64) bool { return math.Abs(a-b) > 0.10*math.Max(a, b) }
	return far(c.SpinMops, o.SpinMops) || far(c.StreamGBs, o.StreamGBs)
}

// memDelta is heap allocation between two points, whole process.
type memDelta struct {
	Bytes, Objects uint64
}

// memMark reads the process's cumulative allocation counters. ReadMemStats
// stops the world, so it is called only between timed sections.
func memMark() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{Bytes: ms.TotalAlloc, Objects: ms.Mallocs}
}

func (m memDelta) since(start memDelta) memDelta {
	return memDelta{Bytes: m.Bytes - start.Bytes, Objects: m.Objects - start.Objects}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
