package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// counters is one snapshot of every counter the benchmark reads: the
// members' node counters and fabric stats, the process's syscalls, CPU
// time, context switches and allocations, and the host's CPU time (for
// steal). Deltas between two snapshots give a phase's per-layer figures.
type counters struct {
	at time.Time

	hits, misses, local, remote          uint64
	invRetries, pendRetries, frozRetries uint64
	reqPkts, reqMsgs, conPkts, conMsgs   uint64
	sends, blocked, wireBytes            uint64
	classBytes                           [5]uint64 // by metrics.Classes order
	syscr, syscw                         uint64
	utime, stime                         time.Duration
	nvcsw                                int64
	mallocs                              uint64
	numGC                                uint32
	hostSteal, hostTotal                 uint64
}

// snapshot reads every counter. It stops the world briefly for the
// allocation counts.
func snapshot(d *deployment) (c counters, err error) {
	c.at = time.Now()
	for i, m := range d.members {
		n := m.LocalNode()
		c.hits += n.CacheHits.Load()
		c.misses += n.CacheMisses.Load()
		c.local += n.LocalOps.Load()
		c.remote += n.RemoteOps.Load()
		c.invRetries += n.InvalidRetries.Load()
		c.pendRetries += n.WritePendingRetries.Load()
		c.frozRetries += n.FrozenRetries.Load()
		c.reqPkts += n.RemoteReqPackets.Load()
		c.reqMsgs += n.RemoteReqMsgs.Load()
		c.conPkts += n.ConPackets.Load()
		c.conMsgs += n.ConMsgs.Load()
		st := d.stats[i]
		c.sends += st.SendsTotal.Load()
		c.blocked += st.SendBlocked.Load()
		c.wireBytes += st.Traffic.TotalBytes()
		for j, cl := range metrics.Classes() {
			c.classBytes[j] += st.Traffic.Bytes(cl)
		}
	}
	ru, err := rusage()
	if err != nil {
		return c, err
	}
	c.utime = time.Duration(ru.Utime.Nano())
	c.stime = time.Duration(ru.Stime.Nano())
	c.nvcsw = ru.Nvcsw
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.numGC = ms.Mallocs, ms.NumGC
	if c.syscr, c.syscw, err = procIO(); err != nil {
		return c, err
	}
	c.hostSteal, c.hostTotal, err = hostCPU()
	return c, err
}

func (c counters) cpu() time.Duration { return c.utime + c.stime }

func rusage() (syscall.Rusage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return ru, fmt.Errorf("getrusage: %w", err)
	}
	return ru, nil
}

// hostSample is the process's CPU time and the host's CPU ticks at one instant.
type hostSample struct {
	cpu          time.Duration
	steal, total uint64
}

// hostWindow is what passed between two samples.
type hostWindow struct {
	cpu   time.Duration
	steal float64 // share of host CPU time stolen by the hypervisor
}

func sampleHost() (s hostSample, err error) {
	ru, err := rusage()
	if err != nil {
		return s, err
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s.steal, s.total, err = hostCPU()
	return s, err
}

func (s hostSample) since(prev hostSample) hostWindow {
	return hostWindow{cpu: s.cpu - prev.cpu, steal: ratio(float64(s.steal-prev.steal), float64(s.total-prev.total))}
}

// procIO reads the process's read and write syscall counts.
func procIO() (syscr, syscw uint64, err error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw, nil
}

// hostCPU returns the host's steal time and total CPU time, in clock ticks,
// from the aggregate line of /proc/stat.
func hostCPU() (steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}
