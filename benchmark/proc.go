package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the unit of the CPU times in /proc/<pid>/stat. Linux exports
// them in USER_HZ, which is 100 on every supported architecture.
const userHZ = 100

// selfCPU returns the user+system CPU time the benchmark process has
// consumed so far, to the microsecond (procCPU counts 10 ms ticks, too
// coarse for one batch iteration).
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// procCPU returns the user+system CPU time another process has consumed so
// far, from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may contain spaces;
	// the numeric fields start after the last ')'. utime and stime are
	// fields 14 and 15, i.e. 12 and 13 counted from field 3.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat: %q", pid, s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%s/stat: %q %q", pid, f[11], f[12])
	}
	return time.Duration(utime+stime) * time.Second / userHZ, nil
}

// procPeakRSSMB returns the process's resident-set high-water mark (VmHWM)
// in MB.
func procPeakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// loadavg returns the first field of /proc/loadavg ("?" if unreadable).
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "?"
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return "?"
	}
	return f[0]
}
