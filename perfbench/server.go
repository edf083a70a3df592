package main

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"time"

	"indfd/internal/obs"
	"indfd/internal/obs/tsdb"
	"indfd/internal/serve"
)

// depserveDefaults are the flag defaults of cmd/depserve, keyed by flag
// name and spelled as `depserve -h` prints them. The benchmark's server
// (and the replay of a traced run) is configured from them and nothing
// else; TestServerConfigMatchesDepserveDefaults and the steady command
// fail when they drift from the binary's.
var depserveDefaults = map[string]string{
	"deadline":      "10s",
	"max-deadline":  "1m0s",
	"slow":          "500ms",
	"budget":        "0",
	"search":        "false",
	"span-cap":      "64",
	"cache-size":    "1024",
	"cache-ttl":     "0s",
	"trace-buf":     "128",
	"digest-size":   "256",
	"chase-workers": "0",
	"pool":          "true",
	"max-batch":     "256",
	"batch-fanout":  "0",
	"ts-resolution": "2s",
	"ts-retention":  "15m0s",
}

// benchServer is one depserve server built in-process the way
// cmd/depserve builds it with default flags: a span-capped registry,
// the runtime sampler, the tsdb sampling loop, and the JSON access log
// (written to io.Discard instead of stderr). No OTLP sink and no alert
// rules are configured by default, so there is no exporter and no
// watchdog.
type benchServer struct {
	reg  *obs.Registry
	srv  *serve.Server
	stop []func()
}

func newBenchServer() *benchServer {
	reg := obs.New()
	reg.SetSpanCap(defaultInt("span-cap"))
	b := &benchServer{reg: reg}
	b.stop = append(b.stop, obs.StartRuntimeSampler(reg, 10*time.Second))
	tick := defaultDuration("ts-resolution")
	store := tsdb.New(tsdb.Config{Resolution: tick, Retention: defaultDuration("ts-retention"), Reg: reg})
	b.srv = serve.New(serve.Config{
		Reg:             reg,
		Logger:          slog.New(slog.NewJSONHandler(io.Discard, nil)),
		DefaultDeadline: defaultDuration("deadline"),
		MaxDeadline:     defaultDuration("max-deadline"),
		SlowQuery:       defaultDuration("slow"),
		ChaseBudget:     defaultInt("budget"),
		SearchFallback:  defaultBool("search"),
		CacheSize:       defaultInt("cache-size"),
		CacheTTL:        defaultDuration("cache-ttl"),
		TraceBuffer:     defaultInt("trace-buf"),
		DigestSize:      defaultInt("digest-size"),
		ChaseWorkers:    defaultInt("chase-workers"),
		PoolDisabled:    !defaultBool("pool"),
		MaxBatch:        defaultInt("max-batch"),
		BatchFanout:     defaultInt("batch-fanout"),
		TSDB:            store,
	})
	b.stop = append(b.stop, tsdb.StartLoop(reg, store, nil, tick))
	b.srv.SetReady(true)
	return b
}

// defaultInt, defaultBool and defaultDuration read one flag of
// depserveDefaults; a value that does not parse is a fault of the
// table, so they panic.
func defaultInt(flag string) int {
	n, err := strconv.Atoi(depserveDefaults[flag])
	if err != nil {
		panic(fmt.Sprintf("depserveDefaults[%q]: %v", flag, err))
	}
	return n
}

func defaultBool(flag string) bool {
	v, err := strconv.ParseBool(depserveDefaults[flag])
	if err != nil {
		panic(fmt.Sprintf("depserveDefaults[%q]: %v", flag, err))
	}
	return v
}

func defaultDuration(flag string) time.Duration {
	d, err := time.ParseDuration(depserveDefaults[flag])
	if err != nil {
		panic(fmt.Sprintf("depserveDefaults[%q]: %v", flag, err))
	}
	return d
}

// close stops the sampler loops; each stop function returns once its
// goroutine has exited.
func (b *benchServer) close() {
	for _, stop := range b.stop {
		stop()
	}
}
