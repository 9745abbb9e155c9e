package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, 100 on
// every Linux platform Go supports).
const clockTick = 10 * time.Millisecond

// rssPoll is how often an rssSampler reads the resident set.
const rssPoll = 5 * time.Millisecond

// rssSampler polls a process's resident set from /proc/<pid>/statm and keeps
// the largest value seen since the last mark. A workload marks after each
// unit of work (a segment, round, rip or pass) and reports the median of
// those peaks: VmHWM, the peak of the whole process life, is a single worst
// moment that a garbage collection starting a little late decides, so it
// moves between runs of the same code far more than the typical peak does.
type rssSampler struct {
	path string
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	peak  int64 // pages since the last mark
	peaks []float64
	err   error
}

// sampleRSS starts polling the resident set of pid ("self" or a number).
func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{path: "/proc/" + pid + "/statm", stop: make(chan struct{}), done: make(chan struct{})}
	s.poll()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssPoll)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *rssSampler) poll() {
	pages, err := statmRSS(s.path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, pages)
}

// mark ends a unit of work: it samples once more, records the unit's peak
// when keep is set, and starts the next unit.
func (s *rssSampler) mark(keep bool) {
	s.poll()
	s.mu.Lock()
	defer s.mu.Unlock()
	if keep {
		s.peaks = append(s.peaks, float64(s.peak*int64(os.Getpagesize()))/(1<<20))
	}
	s.peak = 0
}

// close stops the poller and returns the recorded peaks in MiB.
func (s *rssSampler) close() ([]float64, error) {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil && len(s.peaks) == 0 {
		return nil, fmt.Errorf("no resident-set samples from %s", s.path)
	}
	return s.peaks, s.err
}

// statmRSS reads the resident set, in pages, the second field of statm.
func statmRSS(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short %s", path)
	}
	return strconv.ParseInt(fields[1], 10, 64)
}

// procCPU returns the user plus system CPU time a process has used so far,
// from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesized and may contain spaces;
	// fields are counted from the last ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
