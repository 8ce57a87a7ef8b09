package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// endToEnd are the bounded metrics of an untraced run. Every workload
// reports every one of them, so each is defined for batch and live
// work alike (see README.md).
var endToEnd = []string{
	"setup_s",
	"time_to_profile_s",
	"alloc_mb_per_input_mb",
	"retained_heap_mb",
}

// perLayer are the metrics of a traced run, reported by every workload
// on its own data.
var perLayer = []string{
	"pcap.read_ns_per_record", "pcap.decode_ns_per_record", "pcap.plan_ms", "pcap.records",
	"tcpflow.feed_ns_per_packet", "tcpflow.payloads", "tcpflow.retransmits",
	"iec104.parse_ns_per_frame", "iec104.frames", "iec104.parse_errors",
	"protocol.next_ns_per_frame", "protocol.c37118.frames", "protocol.modbus.frames",
	"core.feed_ns_per_packet", "core.onpayload_ns_per_call", "core.partial_ms", "core.merge_ms", "core.cluster_ms",
	"physical.feed_ns_per_asdu", "physical.series",
	"markov.add_ns_per_token",
	"stream.run_s", "stream.publish_ms", "stream.stalls", "stream.queue_fill", "stream.reader_mb_per_s",
	"pipeline.run_s", "pipeline.overhead_ratio", "pipeline.stalls",
	"historian.append_ns_per_sample", "historian.flush_ms", "historian.query_ms", "historian.compression_ratio",
	"drift.encode_ms", "drift.decode_ms",
	"service.profile.handler_us_p50", "service.profile.handler_us_p99",
	"service.query.handler_us_p50", "service.query.handler_us_p99",
	"service.statusz.handler_us_p50", "service.statusz.handler_us_p99",
	"service.fleet.handler_us_p50", "service.fleet.handler_us_p99",
	"service.partial.handler_us_p50", "service.partial.handler_us_p99",
	"service.cache_hit_ratio",
	"loadgen.late_p99_ms", "trace.overhead_ratio", "ladder.unexplained_share",
}

// finish fills the result's bounded metric set from its report.
func (r *result) finish(o options) {
	if o.Trace {
		r.Metrics = pick(r.Report, perLayer)
	} else {
		r.Metrics = pick(r.Report, endToEnd)
	}
}

// machineRecord describes the host and the run's settings; the workload
// adds its input description.
func machineRecord(o options) map[string]any {
	return map[string]any{
		"workload":   o.Workload,
		"seed":       o.Seed,
		"seconds":    o.Seconds,
		"trace":      o.Trace,
		"smoke":      o.Smoke,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"started_at": time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// shards is the shard, reader and connection cap: the machine's CPU
// count.
func shards() int {
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	return n
}

// median returns the middle value (mean of the two middle values for an
// even count); zero for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between
// closest ranks; zero for an empty slice.
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

// quartiles returns the first, second and third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostTicks reads the machine-wide CPU tick counters of /proc/stat:
// the total and the share stolen by the hypervisor. Both are zero
// where the file is missing.
func hostTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// stealMeter reports the share of host CPU time stolen since it was
// started: a record of how contended the machine was while measuring.
type stealMeter struct{ total, steal int64 }

func startSteal() stealMeter {
	t, s := hostTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s := hostTicks()
	return ratio(float64(s-m.steal), float64(t-m.total))
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// mb converts bytes to megabytes (10^6).
func mb(b float64) float64 { return b / 1e6 }

// ratio is a/b, or zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
