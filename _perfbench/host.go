package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuNow returns the process's CPU time, user plus system over all
// threads (getrusage RUSAGE_SELF), in nanoseconds. Every host-time
// metric the benchmark gates on is a difference of two cpuNow calls;
// the wall clock is only printed as context.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// spanNow returns the process CPU clock (CLOCK_PROCESS_CPUTIME_ID) in
// nanoseconds. getrusage reports microseconds; spans around single
// calls need the finer clock.
func spanNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return ts.Nano()
}

// heap is a point-in-time reading of the Go allocator's cumulative
// counters.
type heap struct{ bytes, objects uint64 }

func (h heap) sub(o heap) heap { return heap{h.bytes - o.bytes, h.objects - o.objects} }

func heapNow() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

// peakRSSMB returns the process's resident-set high-water mark
// (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
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
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// stealSeconds returns the machine-wide steal time from /proc/stat: time
// the hypervisor ran something else while a vCPU of this guest wanted to
// run. It is context for reading a run, never a metric; ok is false where
// the file or field is missing.
func stealSeconds() (s float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, false
	}
	const userHZ = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return ticks / userHZ, true
}

// byteCounter is an io.Writer that discards what it is given and counts
// bytes and Write calls: the sink for every output stream of a timed
// run, so the number measured is the encoder's cost, not a disk's.
type byteCounter struct{ bytes, writes int64 }

func (w *byteCounter) Write(p []byte) (int, error) {
	w.bytes += int64(len(p))
	w.writes++
	return len(p), nil
}

// lineCounter is a byteCounter that also counts newlines, for the JSONL
// streams of the traced run (one record per line).
type lineCounter struct {
	byteCounter
	lines int64
}

func (w *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			w.lines++
		}
	}
	return w.byteCounter.Write(p)
}
