package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A window measured the host rather than the server when the generator
// ran late or the hypervisor took this VM's CPUs for another guest.
const (
	// lateBound bounds how late the generator may send: a request waits
	// 0-1ms for its tick, so a send more than 2ms after its due time means
	// the generator stalled for over a millisecond.
	lateBound = 2 * time.Millisecond
	// stealBound is the largest share of the window's CPU time the
	// hypervisor may steal (/proc/stat "steal") before the window is
	// disturbed. Steal is counted in 10ms ticks: one stolen tick disturbs
	// a 100ms reference window on 2 vCPUs (20 ticks), while a 250ms
	// closed-loop window may lose one of its 50.
	stealBound = 0.03
)

// noise is what the host did to one window.
type noise struct {
	steal   float64 // share of the window's CPU time stolen by the hypervisor
	lateMax int64   // the generator's largest lateness, ns (0 where not paced)
}

func (n noise) disturbed() bool {
	return n.steal > stealBound || n.lateMax > int64(lateBound)
}

// stealTicks returns the VM's cumulative steal time from /proc/stat, in
// clock ticks (1/100 s): time its vCPUs were ready to run while the
// hypervisor ran something else. It is -1 where the kernel reports none.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	var buf [512]byte
	n, _ := f.Read(buf[:])
	line, _, _ := strings.Cut(string(buf[:n]), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// stealShare is the share of the CPU time of a window of length dt that
// was stolen between the readings a and b; 0 when steal is not reported.
func stealShare(a, b int64, dt time.Duration) float64 {
	if a < 0 || b < 0 || dt <= 0 {
		return 0
	}
	return float64(b-a) / 100 / (dt.Seconds() * float64(runtime.NumCPU()))
}
