// Command perfbench is the benchmark of depserve, the repository's
// implication service. One closed-loop client calls the default
// server's handler in-process with seeded, pre-rendered request bodies
// and checks every answer against the benchmark's own oracles.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload inline_hot|inline_cold|named_rw \
//	    --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh steady
//
// A run prints a summary line and, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}, with the end-to-end
// metrics when --trace is 0 and the per-layer metrics of a traced run
// when it is 1. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how often a run builds its server (and registers its
// schemas); setup_s is the median. Each build starts after a collection,
// so none pays for the garbage of the one before.
const setupRepeats = 101

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady())
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "inline_hot, inline_cold or named_rw")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d attempted=%d failed=%d\n", *name, *seed, res.Attempted, res.Failed)
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark reports.
var units = map[string]string{
	"requests_per_s":       "1/s",
	"goals_per_s":          "1/s",
	"latency_p50_us":       "us",
	"latency_p99_us":       "us",
	"cpu_us_per_goal":      "us",
	"allocs_per_goal":      "count",
	"alloc_bytes_per_goal": "bytes",
	"rss_peak_mb":          "MiB",
	"setup_s":              "s",

	"serve.handler_us":                      "us",
	"serve.self_us":                         "us",
	"serve.decode_us":                       "us",
	"serve.encode_us":                       "us",
	"serve.batch_goal_us":                   "us",
	"parser.parse_us":                       "us",
	"core.compile_us":                       "us",
	"core.fingerprint_us":                   "us",
	"core.cache_get_us":                     "us",
	"cache.hit_ratio":                       "ratio",
	"cache.evictions_per_kgoal":             "count",
	"cache.footprint_invalidations_per_put": "count",
	"fd.engine_us":                          "us",
	"ind.engine_us":                         "us",
	"unary.engine_us":                       "us",
	"chase.engine_us":                       "us",
	"chase.delta_tuples_per_goal":           "count",
	"chase.rounds_per_goal":                 "count",
	"ind.expanded_per_goal":                 "count",
	"fd.attrs_derived_per_goal":             "count",
	"pool.hit_ratio":                        "ratio",
	"registry.put_us":                       "us",
	"gc.cycles_per_kgoal":                   "count",
	"http.loopback_us":                      "us",
	"trace.overhead_us":                     "us",
}

func run(name string, seed uint64, seconds int, trace bool) (*result, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	w, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	setups := make([]float64, setupRepeats)
	var b *benchServer
	for i := range setups {
		runtime.GC()
		start := time.Now()
		s := newBenchServer()
		sc := newClient(s, 0)
		for j := range w.setup {
			sc.do(&w.setup[j])
		}
		setups[i] = time.Since(start).Seconds()
		if sc.failed > 0 {
			s.close()
			return nil, fmt.Errorf("schema registration failed")
		}
		if i < len(setups)-1 {
			s.close()
		} else {
			b = s
		}
	}
	defer b.close()
	c := newClient(b, w.nrefs)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var values map[string]float64
	if trace {
		values, res.Correct, err = traced(w, b, c, seconds, seed)
		if err != nil {
			return nil, err
		}
	} else {
		for i := range w.warm {
			c.do(&w.warm[i])
		}
		values = measure(w, c, seconds)
		values["setup_s"] = median(setups)
	}
	for k, v := range values {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	// A wrong verdict, a non-200 status or an answer that differs from
	// the one it must repeat makes the whole run incorrect.
	res.Correct = res.Correct && c.failed == 0
	return res, nil
}

// blockRequests is the least number of requests a measured block
// holds: at least ten beyond its 99th percentile.
const blockRequests = 1000

// block is one measured block of whole rounds.
type block struct {
	stolen                                  float64 // share of the block the hypervisor took from its busiest CPU
	reqRate, goalRate, cpuPerGoal, p50, p99 float64
}

// measure runs blocks of whole rounds until the window has passed and
// reduces them to the end-to-end metrics. Rates, CPU cost and latency
// quantiles are taken per block — every block sends the same requests —
// and each is reported as its value at zero steal: on a shared host the
// hypervisor takes CPU time from the machine (steal time), and a block
// that lost more of it runs slower, with a longer tail. The estimate is
// a Theil–Sen line of the metric's logarithm against the block's stolen
// share, read at zero. On a machine without steal it is the median over
// the blocks; on a shared one it is the server's speed while it had its
// CPUs, not the neighbours' load.
func measure(w *workload, c *client, seconds int) map[string]float64 {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rounds := (blockRequests + len(w.round) - 1) / len(w.round)
	lat := make([]int64, 0, rounds*len(w.round))
	var blocks []block
	goals := 0
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) {
		steal0, start, cpu0, g := stealTicks(), time.Now(), cpuTime(), 0
		lat = lat[:0]
		for r := 0; r < rounds; r++ {
			for i := range w.round {
				lat = append(lat, int64(c.do(&w.round[i])))
				g += w.round[i].goals
			}
		}
		d := time.Since(start).Seconds()
		cpu := cpuTime() - cpu0
		steal1 := stealTicks()
		stolen := 0.0
		for i := range min(len(steal0), len(steal1)) {
			stolen = max(stolen, float64(steal1[i]-steal0[i])/clockTicks/d)
		}
		slices.Sort(lat)
		blocks = append(blocks, block{stolen: stolen,
			reqRate: float64(len(lat)) / d, goalRate: float64(g) / d,
			cpuPerGoal: cpu.Seconds() * 1e6 / float64(g),
			p50:        quantile(lat, 0.50) / 1e3, p99: quantile(lat, 0.99) / 1e3})
		goals += g
	}
	runtime.ReadMemStats(&ms1)
	stolen := make([]float64, len(blocks))
	for i, b := range blocks {
		stolen[i] = b.stolen
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d blocks; share of a block stolen from its busiest CPU: median %.3f, largest %.3f\n",
		len(blocks), median(stolen), slices.Max(stolen))
	atZero := func(f func(b block) float64) float64 {
		ys := make([]float64, len(blocks))
		for i, b := range blocks {
			ys[i] = math.Log(f(b))
		}
		return math.Exp(theilSenAtZero(stolen, ys))
	}
	g := float64(goals)
	return map[string]float64{
		"requests_per_s":       atZero(func(b block) float64 { return b.reqRate }),
		"goals_per_s":          atZero(func(b block) float64 { return b.goalRate }),
		"latency_p50_us":       atZero(func(b block) float64 { return b.p50 }),
		"latency_p99_us":       atZero(func(b block) float64 { return b.p99 }),
		"cpu_us_per_goal":      atZero(func(b block) float64 { return b.cpuPerGoal }),
		"allocs_per_goal":      float64(ms1.Mallocs-ms0.Mallocs) / g,
		"alloc_bytes_per_goal": float64(ms1.TotalAlloc-ms0.TotalAlloc) / g,
		"rss_peak_mb":          rssPeakMiB(),
	}
}

// theilSenAtZero fits the line y = a + b·x with the Theil–Sen estimator
// (b the median of the slopes between pairs of points with distinct x,
// a the median of y − b·x) and returns a, its value at x = 0. With no
// two distinct x it returns the median of y.
func theilSenAtZero(xs, ys []float64) float64 {
	var slopes []float64
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] != xs[j] {
				slopes = append(slopes, (ys[j]-ys[i])/(xs[j]-xs[i]))
			}
		}
	}
	if len(slopes) == 0 {
		return median(ys)
	}
	b := median(slopes)
	rest := make([]float64, len(ys))
	for i := range ys {
		rest[i] = ys[i] - b*xs[i]
	}
	return median(rest)
}

// clockTicks is the unit of /proc/stat: USER_HZ, 100 a second on Linux.
const clockTicks = 100

// stealTicks returns each CPU's steal time from /proc/stat (the eighth
// value of its cpuN line, in clock ticks): time the hypervisor ran
// something else while that CPU had work. It is nil where /proc/stat
// is missing, which makes every block unstolen.
func stealTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var ticks []int64
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		n, _ := strconv.ParseInt(f[8], 10, 64)
		ticks = append(ticks, n)
	}
	return ticks
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMiB is the process's peak resident set (Linux reports KiB).
func rssPeakMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
