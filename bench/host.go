package main

import (
	"runtime"
	"syscall"
	"time"
)

// Every host-clock read of the harness goes through this file, so the
// walltime lint has exactly these sites to justify.

//simlint:allow walltime — process start stamp for setup_s, the host seconds from process start to the measured phase; never reaches simulated state
var procStart = time.Now()

func hostNow() time.Time {
	//simlint:allow walltime — the benchmark times the simulator from outside; host wall time is the measurement
	return time.Now()
}

// hostSince returns host nanoseconds since t.
func hostSince(t time.Time) int64 {
	//simlint:allow walltime — host duration of a call into the program under test, reported as wall_qps / *_ns / *_ms
	return int64(time.Since(t))
}

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	allocBytes uint64
	mallocs    uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
}

func (m memCounters) sub(prev memCounters) memCounters {
	return memCounters{allocBytes: m.allocBytes - prev.allocBytes, mallocs: m.mallocs - prev.mallocs}
}

// peakRSSMB returns ru_maxrss of this process in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spans are the harness's own host-time spans around every public call it
// makes into the program (name, start, end, parent). They live in memory
// and are written with the result file. A nil *spans records nothing, so
// untraced rounds pay one pointer check per call.
type spans struct {
	List  []span `json:"spans"`
	stack []int
}

type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into List, -1 for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s *spans) do(name string, f func()) {
	if s == nil {
		f()
		return
	}
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	idx := len(s.List)
	s.List = append(s.List, span{Name: name, Parent: parent, StartNS: hostSince(procStart)})
	s.stack = append(s.stack, idx)
	f()
	s.stack = s.stack[:len(s.stack)-1]
	s.List[idx].EndNS = hostSince(procStart)
}
