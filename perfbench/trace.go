package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"indfd/internal/chase"
	"indfd/internal/core"
	"indfd/internal/deps"
	"indfd/internal/obs"
	"indfd/internal/parser"
	"indfd/internal/schema"
	"indfd/internal/serve"
)

// The traced run. Spans are recorded from the benchmark's own code,
// around calls into each layer's public functions; the program itself
// is not instrumented further. The run has these passes:
//
//  1. the traced pass sends a sequence of requests (warm-up, then whole
//     rounds) to the default server exactly as the untraced run does,
//     with one serve.handler span per request, and replays each request
//     as soon as the server has answered it. The replay feeds the same
//     body, from its own state, through the layers the handler calls —
//     JSON decode, parser.ParseString, core.NewSystem+Add,
//     System.QueryKey, AnswerCache.Get, the engine,
//     AnswerCache.PutTagged, registry.Put, JSON encode — with a span
//     around each call. The replay follows the handler's call order as
//     internal/serve has it; when the handler changes that order, the
//     replay must change with it. Every replayed response must equal
//     the server's apart from request_id and elapsed_us, and the
//     replay's own cache and engine pools must count what the server's
//     counted (its obs registry gives the counts), or the replay is not
//     the same sequence;
//  2. the loopback pass sends one round over a keep-alive loopback
//     connection to the warm server, for the net/http reference figure;
//  3. the collection pass sends whole rounds to the server alone and
//     counts garbage collections.

// traceMaxGoals caps the traced sequence so spans stay a few MB.
const traceMaxGoals = 10000

// gcStretchGoals is the least number of goals the collection pass sends.
const gcStretchGoals = 5000

// Request indexes of spans outside the traffic: setup registrations
// count down from -1, registry probes from probeReq, loopback requests
// from loopbackReq.
const (
	probeReq    = -1000000
	loopbackReq = -2000000
)

type span struct {
	name       string
	req        int32 // request index; negative for setup registrations and probes
	parent     int32 // index of the parent span, -1 for a root
	start, end int64 // ns since the tracer's epoch
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name string, req, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = int64(time.Since(t.t0)) }

// selfTimes returns, per span name, the summed self time (duration
// minus the part of it the span's children cover) and the call count,
// over spans whose request index passes keep.
func (t *tracer) selfTimes(keep func(req int32) bool) (self map[string]int64, calls map[string]int) {
	covered := make([]int64, len(t.spans))
	lastEnd := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 {
			continue
		}
		from := max(s.start, lastEnd[s.parent])
		if s.end > from {
			covered[s.parent] += s.end - from
			lastEnd[s.parent] = s.end
		}
	}
	self, calls = map[string]int64{}, map[string]int{}
	for i, s := range t.spans {
		if keep(s.req) {
			self[s.name] += s.end - s.start - covered[i]
			calls[s.name]++
		}
	}
	return self, calls
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var line []byte
	for i, s := range t.spans {
		line = append(line[:0], `{"id":`...)
		line = strconv.AppendInt(line, int64(i), 10)
		line = append(line, `,"name":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"req":`...)
		line = strconv.AppendInt(line, int64(s.req), 10)
		line = append(line, `,"parent":`...)
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer answers requests through the layers' public functions with
// its own cache, engine pool and schema registry, configured as the
// server's are.
type replayer struct {
	tr      *tracer
	reg     *obs.Registry
	cache   *core.AnswerCache
	pool    *chase.EnginePool
	entries map[string]*entry
	stamps  client // name stamping only, from the same first id as the server pass
	runs    map[string]int
	out     bytes.Buffer
}

func newReplayer(tr *tracer) *replayer {
	reg := obs.New()
	reg.SetSpanCap(defaultInt("span-cap"))
	return &replayer{tr: tr, reg: reg, cache: core.NewAnswerCache(defaultInt("cache-size"), defaultDuration("cache-ttl"), reg),
		pool: chase.NewEnginePool(reg), entries: map[string]*entry{}, runs: map[string]int{}}
}

// entry is one registered schema version, as registry.Put keeps it.
type entry struct {
	version int64
	db      *schema.Database
	sys     *core.System
	pool    *chase.EnginePool
	members map[string]bool
}

// register does what registry.Put does — parse, compile, key the
// members, warm a dedicated engine pool, publish — through the same
// public calls, with the parse and the compile as child spans of one
// registry.put span. It returns the new version and the changed
// members (the symmetric difference of the two versions' keys).
func (rp *replayer) register(name, doc string, req, root int32) (*entry, []string, error) {
	put := rp.tr.begin("registry.put", req, root)
	defer rp.tr.end(put)
	sp := rp.tr.begin("parser.parse", req, put)
	f, err := parser.ParseString(doc)
	rp.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = rp.tr.begin("core.compile", req, put)
	sys := core.NewSystem(f.DB)
	err = sys.Add(f.Sigma...)
	rp.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	e := &entry{db: sys.DB(), sys: sys, pool: chase.NewEnginePool(rp.reg), members: map[string]bool{}}
	for _, d := range sys.Sigma() {
		e.members[d.Key()] = true
	}
	if err := e.pool.Warm(e.db, sys.Sigma()); err != nil {
		return nil, nil, err
	}
	var changed []string
	prev := rp.entries[name]
	for k := range e.members {
		if prev == nil || !prev.members[k] {
			changed = append(changed, k)
		}
	}
	if prev != nil {
		e.version = prev.version
		for k := range prev.members {
			if !e.members[k] {
				changed = append(changed, k)
			}
		}
	}
	e.version++
	rp.entries[name] = e
	return e, changed, nil
}

type prepared struct {
	sys     *core.System
	pool    *chase.EnginePool
	goals   []deps.Dependency
	version int64 // of the registered schema; 0 for an inline one
}

func (rp *replayer) replay(o *op, req int32) error {
	root := rp.tr.begin("replay", req, -1)
	defer rp.tr.end(root)
	body := rp.stamps.body(o)
	ctx, cancel := context.WithTimeout(context.Background(), defaultDuration("deadline"))
	defer cancel()
	switch o.kind {
	case opPut:
		var pr serve.SchemaPutRequest
		if err := rp.decode(body, &pr, req, root); err != nil {
			return err
		}
		name := strings.TrimPrefix(o.url.Path, "/v1/schemas/")
		e, changed, err := rp.register(name, depDocument(pr.Schema, pr.Sigma, nil, false), req, root)
		if err != nil {
			return err
		}
		sp := rp.tr.begin("core.cache_invalidate", req, root)
		resp := serve.SchemaResponse{Name: name, Version: e.version, Invalidated: rp.cache.InvalidateMembers(changed...)}
		rp.tr.end(sp)
		for _, n := range e.db.Names() {
			sch, _ := e.db.Scheme(n)
			resp.Relations = append(resp.Relations, sch.String())
		}
		resp.Sigma = []string{}
		for _, d := range e.sys.Sigma() {
			resp.Sigma = append(resp.Sigma, d.String())
		}
		return rp.encode(resp, req, root)
	case opBatch:
		var br serve.BatchRequest
		if err := rp.decode(body, &br, req, root); err != nil {
			return err
		}
		p, err := rp.prepare(br.SchemaName, br.Schema, br.Sigma, br.Goals, br.Finite, req, root)
		if err != nil {
			return err
		}
		ir := serve.ImpliesRequest{Finite: br.Finite, Budget: br.Budget}
		resp := serve.BatchResponse{Schema: br.SchemaName, Version: p.version, Goals: len(p.goals)}
		for _, g := range p.goals {
			a, cache, err := rp.solve(ctx, p, g, ir, req, root)
			if err != nil {
				return err
			}
			resp.Answers = append(resp.Answers, serve.BatchGoalAnswer{ImpliesResponse: a, Cache: cache, Status: http.StatusOK})
		}
		return rp.encode(resp, req, root)
	default:
		var ir serve.ImpliesRequest
		if err := rp.decode(body, &ir, req, root); err != nil {
			return err
		}
		if o.kind == opExplain {
			ir.Explain, ir.Provenance = true, true
		}
		p, err := rp.prepare(ir.SchemaName, ir.Schema, ir.Sigma, []string{ir.Goal}, ir.Finite, req, root)
		if err != nil {
			return err
		}
		a, _, err := rp.solve(ctx, p, p.goals[0], ir, req, root)
		if err != nil {
			return err
		}
		return rp.encode(a, req, root)
	}
}

func (rp *replayer) decode(body []byte, into any, req, root int32) error {
	sp := rp.tr.begin("serve.decode", req, root)
	defer rp.tr.end(sp)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

func (rp *replayer) encode(v any, req, root int32) error {
	sp := rp.tr.begin("serve.encode", req, root)
	defer rp.tr.end(sp)
	rp.out.Reset()
	enc := json.NewEncoder(&rp.out)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// prepare mirrors the handler's set-up: a registered schema supplies
// the compiled system and pool and only the goals are parsed; an inline
// one is rendered to .dep text, parsed and compiled.
func (rp *replayer) prepare(name string, schemaLines, sigma, goals []string, finite bool, req, root int32) (*prepared, error) {
	p := &prepared{pool: rp.pool}
	var doc string
	if name != "" {
		e, ok := rp.entries[name]
		if !ok {
			return nil, fmt.Errorf("schema %q is not registered", name)
		}
		p.sys, p.pool, p.version = e.sys, e.pool, e.version
		doc = goalDocument(e.db, goals, finite)
	} else {
		doc = depDocument(schemaLines, sigma, goals, finite)
	}
	sp := rp.tr.begin("parser.parse", req, root)
	f, err := parser.ParseString(doc)
	rp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if p.sys == nil {
		sp = rp.tr.begin("core.compile", req, root)
		p.sys = core.NewSystem(f.DB)
		err = p.sys.Add(f.Sigma...)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	for _, q := range f.Queries {
		p.goals = append(p.goals, q.Goal)
	}
	return p, nil
}

// solve mirrors the handler's per-goal path: fingerprint, cache
// lookup, engine on a miss, tagged insert of a complete answer. It
// returns the answer and whether it came from the cache ("hit" or
// "miss"), as a batch slot reports it.
func (rp *replayer) solve(ctx context.Context, p *prepared, goal deps.Dependency, ir serve.ImpliesRequest, req, root int32) (serve.ImpliesResponse, string, error) {
	resp := serve.ImpliesResponse{Goal: goal.String(), Mode: "unrestricted", DeadlineMS: defaultDuration("deadline").Milliseconds()}
	if ir.Finite {
		resp.Mode = "finite"
	}
	budget := ir.Budget
	if budget <= 0 {
		budget = defaultInt("budget")
	}
	opt := core.Options{ChaseMaxTuples: budget, SearchFallback: ir.Search || defaultBool("search"),
		Provenance: ir.Provenance, Obs: rp.reg, Ctx: ctx, ChaseWorkers: defaultInt("chase-workers"), ChasePool: p.pool}
	sp := rp.tr.begin("core.fingerprint", req, root)
	key := p.sys.QueryKey(goal, resp.Mode,
		append(core.FingerprintOptions(opt), "explain="+strconv.FormatBool(ir.Explain))...)
	rp.tr.end(sp)
	opt.Footprint = true
	sp = rp.tr.begin("core.cache_get", req, root)
	hit, ok := rp.cache.Get(key)
	rp.tr.end(sp)
	if ok {
		fill(&resp, hit.Answer, hit.Explanation)
		return resp, "hit", nil
	}
	sp = rp.tr.begin("engine", req, root)
	var a core.Answer
	var why string
	var err error
	switch {
	case ir.Explain:
		a, why, err = p.sys.Explain(goal, opt, ir.Finite)
	case ir.Finite:
		a, err = p.sys.ImpliesFinite(goal, opt)
	default:
		a, err = p.sys.Implies(goal, opt)
	}
	rp.tr.end(sp)
	if err != nil {
		return resp, "", err
	}
	rp.tr.spans[sp].name = "engine." + a.Engine
	rp.runs[a.Engine]++
	if a.Verdict != core.Unknown {
		sp = rp.tr.begin("core.cache_put", req, root)
		rp.cache.PutTagged(key, core.CachedAnswer{Answer: a, Explanation: why}, p.sys.AnswerTags(&a, goal))
		rp.tr.end(sp)
	}
	fill(&resp, a, why)
	return resp, "miss", nil
}

func fill(resp *serve.ImpliesResponse, a core.Answer, why string) {
	resp.Verdict = a.Verdict.String()
	resp.Engine = a.Engine
	resp.Proof = a.Proof
	resp.Explanation = why
	if a.Counterexample != nil {
		resp.Counterexample = a.Counterexample.String()
	}
	resp.ChaseRounds = a.ChaseRounds
	resp.ChaseTuples = a.ChaseTuples
	resp.Derivation = a.Derivation
	if st := a.INDStats; st != nil {
		resp.IND = &serve.INDStats{Expanded: st.Expanded, Generated: st.Generated,
			Visited: st.Visited, FrontierPeak: st.FrontierPeak, ChainLength: st.ChainLength}
	}
}

// depDocument and goalDocument render requests to .dep text as the
// handler does before parsing.
func depDocument(schemaLines, sigma, goals []string, finite bool) string {
	var b strings.Builder
	for _, s := range schemaLines {
		b.WriteString("schema " + s + "\n")
	}
	for _, d := range sigma {
		b.WriteString(d + "\n")
	}
	writeGoals(&b, goals, finite)
	return b.String()
}

func goalDocument(db *schema.Database, goals []string, finite bool) string {
	var b strings.Builder
	for _, n := range db.Names() {
		sch, _ := db.Scheme(n)
		b.WriteString("schema " + sch.String() + "\n")
	}
	writeGoals(&b, goals, finite)
	return b.String()
}

func writeGoals(b *strings.Builder, goals []string, finite bool) {
	for _, g := range goals {
		if finite {
			b.WriteString("?fin ")
		} else {
			b.WriteString("? ")
		}
		b.WriteString(g + "\n")
	}
}

// traced runs the passes and reduces them to the per-layer metrics.
// consistent is false when a replayed response differs from the
// server's, when the replay's cache or pool lookups counted differently
// from the server's, or when the replayed layers take longer than the
// handler calls they stand for.
func traced(w *workload, b *benchServer, c *client, seconds int, seed uint64) (m map[string]float64, consistent bool, err error) {
	tr := newTracer()
	rp := newReplayer(tr)
	// The replay registers the setup schemas the server registered in
	// set-up (negative request indexes).
	for i := range w.setup {
		if err := rp.replay(&w.setup[i], int32(-1-i)); err != nil {
			return nil, false, fmt.Errorf("replay setup: %w", err)
		}
	}
	consistent = true
	var seq []op
	var handlerNS int64
	var handlerReq []int64 // handler time of each request
	var want, got []byte
	goals, mismatches, unaryExplanations := 0, 0, 0
	// send serves o, then replays it at once, so that both see the
	// machine in the same state, and compares the two responses.
	send := func(o *op) error {
		req := int32(len(seq))
		seq = append(seq, *o)
		sp := tr.begin("serve.handler", req, -1)
		c.do(o)
		tr.end(sp)
		handlerReq = append(handlerReq, tr.spans[sp].end-tr.spans[sp].start)
		handlerNS += handlerReq[req]
		goals += o.goals
		want = normalize(want[:0], c.rec.body.Bytes())
		if err := rp.replay(o, req); err != nil {
			return fmt.Errorf("replay request %d: %w", req, err)
		}
		got = normalize(got[:0], rp.out.Bytes())
		if bytes.Equal(got, want) {
			return nil
		}
		// The unary engine lists its cycle-rule applications in map
		// order, so two computations of one explanation may differ in
		// the explanation alone; such differences are counted apart.
		if engine, _ := scanString(got, `"engine":"`); o.kind != opBatch && string(engine) == "unary" &&
			bytes.Equal(blank(nil, got, true), blank(nil, want, true)) {
			unaryExplanations++
			return nil
		}
		consistent = false
		if mismatches++; mismatches <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: replayed response %d differs from the server's:\n  server %.400s\n  replay %.400s\n", req, want, got)
		}
		return nil
	}
	for i := range w.warm {
		if err := send(&w.warm[i]); err != nil {
			return nil, false, err
		}
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for time.Now().Before(deadline) && goals < traceMaxGoals {
		for i := range w.round {
			if err := send(&w.round[i]); err != nil {
				return nil, false, err
			}
		}
	}
	nreq := len(seq)
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d replayed responses differ from the server's\n", mismatches, nreq)
	}
	if unaryExplanations > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d replayed responses differ from the server's in the unary engine's explanation only\n",
			unaryExplanations, nreq)
	}
	server := b.reg.Snapshot().Counters
	replayed := rp.reg.Snapshot().Counters
	// The answer cache is deterministic over a sequence (a batch's goals
	// have distinct fingerprints, so fan-out order cannot change what
	// hits), and every chase run asks the engine pool once. Whether the
	// pool then hits depends on sync.Pool, which garbage collection
	// empties, so pool hits are reported, not compared; lookups are.
	lookups := func(m map[string]int64) int64 { return m["pool.hits"] + m["pool.misses"] }
	server["pool.lookups"], replayed["pool.lookups"] = lookups(server), lookups(replayed)
	for _, k := range []string{"cache.hits", "cache.misses", "cache.evictions", "cache.footprint_invalidations", "pool.lookups"} {
		if server[k] != replayed[k] {
			fmt.Fprintf(os.Stderr, "perfbench: replay diverged from the server: %s %d, replay %d\n", k, server[k], replayed[k])
			consistent = false
		}
	}

	if len(w.setup) == 0 {
		// Inline traffic registers nothing; time registering its first
		// distinct Σ documents instead, as the reference for moving them
		// into the registry.
		if err := rp.probeRegistry(seq, 16); err != nil {
			return nil, false, err
		}
	}

	loop, err := loopback(tr, b, c, w.round)
	if err != nil {
		return nil, false, err
	}

	self, calls := tr.selfTimes(func(r int32) bool { return r >= 0 })
	// serve.self_us is taken over the requests the handler serves on one
	// goroutine: a batch fans its goals out, so its handler time is not
	// the sum of the layer calls the replay makes one after another.
	single := func(r int32) bool { return r >= 0 && seq[r].kind != opBatch }
	singleSelf, _ := tr.selfTimes(single)
	var singleNS int64
	nsingle := 0
	for i := range seq {
		if single(int32(i)) {
			singleNS += handlerReq[i]
			nsingle++
		}
	}
	us := func(ns int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n) / 1e3
	}
	perReq := func(name string) float64 { return us(self[name], nreq) }
	m = map[string]float64{}
	m["serve.handler_us"] = us(handlerNS, nreq)
	layerNS := int64(0)
	for name, ns := range singleSelf {
		if name != "replay" && name != "serve.handler" {
			layerNS += ns
		}
	}
	m["serve.self_us"] = us(singleNS-layerNS, nsingle)
	if m["serve.self_us"] <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: the replayed layers took %.1f µs a request, no less than the handler calls (%.1f µs)\n",
			us(layerNS, nsingle), us(singleNS, nsingle))
		consistent = false
	}
	for _, name := range []string{"serve.decode", "serve.encode", "parser.parse", "core.compile", "core.fingerprint", "core.cache_get"} {
		m[name+"_us"] = perReq(name)
	}
	m["serve.batch_goal_us"] = us(handlerNS, goals)
	for _, e := range []string{"fd", "ind", "unary", "chase"} {
		m[e+".engine_us"] = us(self["engine."+e], calls["engine."+e])
	}
	// A registration's whole cost, its parse and compile included, over
	// every registration: setup, edits, and the inline probes.
	var putNS int64
	puts := 0
	for _, s := range tr.spans {
		if s.name == "registry.put" {
			putNS += s.end - s.start
			puts++
		}
	}
	m["registry.put_us"] = us(putNS, puts)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["cache.hit_ratio"] = ratio(server["cache.hits"], server["cache.hits"]+server["cache.misses"])
	m["cache.evictions_per_kgoal"] = 1000 * ratio(server["cache.evictions"], int64(goals))
	m["cache.footprint_invalidations_per_put"] = ratio(server["cache.footprint_invalidations"], server["registry.puts"])
	m["chase.delta_tuples_per_goal"] = ratio(server["chase.delta_tuples"], int64(rp.runs["chase"]))
	m["chase.rounds_per_goal"] = ratio(server["chase.rounds"], int64(rp.runs["chase"]))
	m["ind.expanded_per_goal"] = ratio(server["ind.expanded"], int64(rp.runs["ind"]))
	m["fd.attrs_derived_per_goal"] = ratio(server["fd.attrs_derived"], int64(rp.runs["fd"]))
	m["pool.hit_ratio"] = ratio(server["pool.hits"], server["pool.lookups"])
	m["http.loopback_us"] = loop
	spans := 0
	for _, n := range calls {
		spans += n
	}
	m["trace.overhead_us"] = spanCost() * float64(spans) / float64(nreq) / 1e3

	fmt.Fprintf(os.Stderr, "perfbench: traced %d requests (%d goals); cache hits %d (replay %d), pool hits %d (replay %d) of %d lookups; engine runs %v\n",
		nreq, goals, server["cache.hits"], replayed["cache.hits"], server["pool.hits"], replayed["pool.hits"], server["pool.lookups"], rp.runs)
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, false, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)

	// Collections are counted over a stretch of whole rounds sent to the
	// server alone, once the tracer and the replay are garbage: their
	// allocations and live heap would change when the collector runs.
	tr, rp, seq = nil, nil, nil
	runtime.GC()
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	gcGoals := 0
	for gcGoals < gcStretchGoals {
		for i := range w.round {
			c.do(&w.round[i])
			gcGoals += w.round[i].goals
		}
	}
	runtime.ReadMemStats(&gc1)
	m["gc.cycles_per_kgoal"] = 1000 * ratio(int64(gc1.NumGC-gc0.NumGC), int64(gcGoals))
	return m, consistent, nil
}

// probeRegistry registers the first n distinct inline Σ documents of
// seq under names of their own, outside the traffic.
func (rp *replayer) probeRegistry(seq []op, n int) error {
	seen := map[string]bool{}
	for i := range seq {
		if len(seen) == n {
			break
		}
		var ir serve.ImpliesRequest
		if err := json.Unmarshal(rp.stamps.body(&seq[i]), &ir); err != nil {
			return err
		}
		doc := depDocument(ir.Schema, ir.Sigma, nil, false)
		if seen[doc] {
			continue
		}
		seen[doc] = true
		if _, _, err := rp.register(fmt.Sprintf("probe%d", len(seen)), doc, probeReq-int32(len(seen)), -1); err != nil {
			return err
		}
	}
	return nil
}

// spanCost is the measured cost of recording one span, in ns.
func spanCost() float64 {
	t := newTracer()
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", 0, -1))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// loopback sends one round to the warm server over a keep-alive
// loopback connection, checking every answer, and returns the median
// client-side latency in µs. Its spans carry request indexes below
// loopbackReq, outside the per-request reductions.
func loopback(tr *tracer, b *benchServer, c *client, round []op) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tp := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	hc := &http.Client{Transport: tp}
	base := "http://" + ln.Addr().String()
	lat := make([]int64, 0, len(round))
	var runErr error
	for i := range round {
		o := &round[i]
		method := http.MethodPost
		if o.kind == opPut {
			method = http.MethodPut
		}
		req, err := http.NewRequest(method, base+o.url.Path, bytes.NewReader(c.body(o)))
		if err != nil {
			runErr = err
			break
		}
		var before int64
		if o.untouched {
			before = c.fpInv.Value()
		}
		sp := tr.begin("http.loopback", loopbackReq-int32(i), -1)
		resp, err := hc.Do(req)
		if err != nil {
			runErr = err
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.end(sp)
		lat = append(lat, tr.spans[sp].end-tr.spans[sp].start)
		if err != nil {
			runErr = err
			break
		}
		c.attempted++
		if err := c.check(o, resp.StatusCode, body, before); err != nil {
			c.fail(o, err)
		}
	}
	tp.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && runErr == nil {
		runErr = err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return 0, fmt.Errorf("loopback pass: %w", runErr)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[(len(lat)-1)/2]) / 1e3, nil
}
