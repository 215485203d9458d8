package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

// span is one call the benchmark made into a layer.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil or disabled
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// on returns t when tracing is wanted for the next op, else nil.
func (t *tracer) on(enabled bool) *tracer {
	if !enabled {
		return nil
	}
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	return t
}

func (t *tracer) begin(op int64, name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// durations returns the durations (ns) of every span with this name.
func (t *tracer) durations(name string) []int64 {
	var out []int64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as JSON lines under .bench_build/spans.
func (t *tracer) write(r *runCtx) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	r.logf("  %d spans written to %s", len(t.spans), path)
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func medianUs(ns []int64) float64 { return summarize(append([]int64(nil), ns...)).p50 / 1e3 }

// memWriter is an in-memory http.ResponseWriter for the handler boundary.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }
func (w *memWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(200)
	return w.body.Write(p)
}

func serveMem(h http.Handler, method, path string, body []byte) (int, []byte) {
	w := &memWriter{h: http.Header{}}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
	return w.status, w.body.Bytes()
}

// traceOps is the op stream every boundary replays: the first n draws of
// each connection's Zipf stream and the first ticks of the feed.
type traceOps struct {
	draws  [2][]int
	order  *interleave // how ticks and draws interleaved, under writes
	ticks  [][]dwarf.Tuple
	fresh  []int
	bodies [][]byte // /ingest bodies
}

// pass runs fn on a fresh set-up whose catalogue answers have been
// verified, then shuts the system down.
func pass(r *runCtx, in *liveInputs, countPartials bool, fn func(sys *system, verified [][]byte) error) error {
	sys, err := in.start(r, countPartials)
	if err != nil {
		return err
	}
	verified, err := verifyCatalogue(r, sys, in)
	if err == nil {
		err = fn(sys, verified)
	}
	return errors.Join(err, sys.close())
}

// traceHTTP produces the per-layer ledger of an HTTP workload. It runs the
// untraced TCP load once to fix the op stream, then replays exactly that
// stream from an identical fresh set-up at each public boundary in turn:
// TCP round trip (traced), Handler().ServeHTTP, direct Store/Coordinator
// calls, dwarf queries over the set-up's segment files and, on the
// cluster, direct calls on each node's store.
func traceHTTP(r *runCtx, in *liveInputs) error {
	writes := in.ticks != nil
	// Dashboard draws per connection are capped so the spans of all
	// passes stay a few hundred thousand.
	const maxDraws = 50000
	caps := [2]int{maxDraws, maxDraws}
	if writes {
		caps[0] = 0
	}
	var base, traced *loadResult
	err := pass(r, in, false, func(sys *system, verified [][]byte) (err error) {
		base, err = load(r, sys, in, verified, r.seconds/2, caps, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	ops := traceOps{}
	for i := 0; i < 2; i++ {
		z := zipfStream(r.seed, i, len(in.cat))
		for j := 0; j < base.perConn[i]; j++ {
			ops.draws[i] = append(ops.draws[i], int(z.Uint64()))
		}
	}
	if writes {
		ops.draws[0] = nil
		ops.order = base.order
		err := forTicks(r.seed, base.ticks, func(k int, tick []dwarf.Tuple, fresh int) {
			ops.ticks = append(ops.ticks, tick)
			ops.fresh = append(ops.fresh, fresh)
			ops.bodies = append(ops.bodies, tickBody(nil, tick))
		})
		if err != nil {
			return err
		}
	}
	tr := (&tracer{}).on(true)

	// Traced TCP pass, with the store counters read at its boundaries.
	var mergeS float64
	var mergeN int
	err = pass(r, in, false, func(sys *system, verified [][]byte) (err error) {
		if traced, err = load(r, sys, in, verified, 10*r.seconds, base.perConn, tr, newGate(ops.order)); err != nil {
			return err
		}
		mergeS, mergeN, err = mergeSegments(sys)
		return err
	})
	if err != nil {
		return err
	}
	// The views and handler passes share one set-up: the views pass reads
	// the segment files before the handler pass writes anything.
	var allocs [nShapes]float64
	err = pass(r, in, false, func(sys *system, _ [][]byte) error {
		if err := viewsPass(sys, in, ops, tr); err != nil {
			return err
		}
		if err := replay(sys, in, ops, tr, "handler"); err != nil {
			return err
		}
		allocs = handlerAllocs(sys, in)
		return nil
	})
	if err != nil {
		return err
	}
	contacted := math.NaN()
	err = pass(r, in, true, func(sys *system, _ [][]byte) error {
		var n0 int64
		if sys.partials != nil {
			n0 = sys.partials.Load()
		}
		if err := replay(sys, in, ops, tr, "store"); err != nil {
			return err
		}
		// Each fresh read is made twice (see replayTick).
		if q := len(tr.durations("store.query")) + 2*len(tr.durations("store.fresh")); sys.partials != nil && q > 0 {
			contacted = float64(sys.partials.Load()-n0) / float64(q)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if in.cluster {
		// The nodes' own work gets a pass of its own: no Coordinator call
		// runs before a node's direct call and fills its result cache.
		err = pass(r, in, false, func(sys *system, _ [][]byte) error {
			return replay(sys, in, ops, tr, "node")
		})
		if err != nil {
			return err
		}
	}
	if writes {
		if err := standalone(r, ops, tr); err != nil {
			return err
		}
	}

	// Per-layer metrics from adjacent boundaries.
	tcpQ, hQ, sQ := medianUs(tr.durations("tcp.query")), medianUs(tr.durations("handler.query")),
		medianUs(tr.durations("store.query"))
	r.set("wire.self_us", tcpQ-hQ)
	r.set("serve.self_us", hQ-sQ)
	r.set("dwarf.kernel_us", medianUs(tr.durations("views.query")))
	for s := 0; s < nShapes; s++ {
		r.set("serve.allocs_per_req."+shapeNames[s], allocs[s])
		name := "store.query." + shapeNames[s]
		if in.cluster {
			r.set("cluster.coord_us."+shapeNames[s], medianUs(tr.durations(name)))
			name = "node.query." + shapeNames[s]
		}
		sm := summarize(tr.durations(name))
		r.set("cubestore.query_us."+shapeNames[s]+".p50", sm.p50/1e3)
		r.set("cubestore.query_us."+shapeNames[s]+".p99", sm.p99/1e3)
	}
	before, after := traced.before, traced.after
	delta := func(f func(cubestore.Stats) int64) float64 { return float64(f(after) - f(before)) }
	queries := float64(len(traced.queries))
	if writes {
		queries += float64(traced.ticks)
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return math.NaN()
		}
		return n / d
	}
	r.set("cubestore.segments_scanned_per_query", ratio(delta(func(s cubestore.Stats) int64 { return s.SegmentsScanned }), queries))
	r.set("cubestore.segments_pruned_per_query", ratio(delta(func(s cubestore.Stats) int64 { return s.SegmentsPruned }), queries))
	r.set("cubestore.rollup_hits_per_grouped", ratio(delta(func(s cubestore.Stats) int64 { return s.RollupHits }), float64(ops.grouped(in))))
	hits := delta(func(s cubestore.Stats) int64 { return s.CacheHits })
	r.set("qcache.hit_rate", ratio(hits, hits+delta(func(s cubestore.Stats) int64 { return s.CacheMisses + s.CacheStale })))
	r.set("qcache.stale_per_query", ratio(delta(func(s cubestore.Stats) int64 { return s.CacheStale }), queries))
	r.set("cubestore.group_commits", delta(func(s cubestore.Stats) int64 { return s.GroupCommits }))
	r.set("cubestore.fsyncs_saved", delta(func(s cubestore.Stats) int64 { return s.FsyncsSaved }))
	r.set("cubestore.seals", delta(func(s cubestore.Stats) int64 { return s.Seals }))
	r.set("cubestore.compactions", delta(func(s cubestore.Stats) int64 { return s.Compactions }))
	r.set("cubestore.seal_queue_depth_max", float64(traced.sealMax))
	if mergeN == 0 {
		mergeS = math.NaN() // no store had two segment files to merge
	}
	r.set("dwarf.mergeviews_s", mergeS)
	if writes {
		r.set("cubestore.memtable_us", medianUs(tr.durations("store.memtable")))
		r.set("dwarf.incremental_fold_us", medianUs(tr.durations("incremental.fold")))
		r.set("serve.ingest_decode_us", medianUs(tr.durations("handler.ingest"))-medianUs(tr.durations("store.append")))
		r.set("cubestore.append_nosync_us", medianUs(tr.durations("nosync.append")))
	}
	if writes && !in.cluster {
		sm := summarize(tr.durations("store.append"))
		r.set("cubestore.append_us.p50", sm.p50/1e3)
		r.set("cubestore.append_us.p99", sm.p99/1e3)
	}
	if in.cluster {
		r.set("cluster.gateway_self_us", hQ-sQ)
		r.set("cluster.node_partial_us", medianUs(tr.durations("node.partial")))
		r.set("cluster.merge_us", medianUs(tr.durations("cluster.merge")))
		r.set("cluster.nodes_contacted_per_query", contacted)
		r.set("cluster.append_us", medianUs(tr.durations("store.append")))
	}
	opUs := summarize(traced.ops).p50 / 1e3
	baseUs := summarize(base.ops).p50 / 1e3
	r.set("trace.overhead_ms", (opUs-baseUs)/1e3)
	r.logf("  traced run: %d dashboard draws per connection %v, %d ticks; full merge over %d segment files",
		len(ops.draws[1]), []int{base.perConn[0], base.perConn[1]}, len(ops.ticks), mergeN)
	ledgerHTTP(r, in, ops, tr, opUs, baseUs)
	return tr.write(r)
}

func (o traceOps) grouped(in *liveInputs) int {
	n := 0
	for _, draws := range o.draws {
		for _, qi := range draws {
			if s := in.cat[qi].shape; s == shGroupBy || s == shPivot || s == shTopK {
				n++
			}
		}
	}
	return n
}

// mergeSegments stops the system's stores and merges each store's final
// segment files with dwarf.MergeViews: the merge of a full compaction.
func mergeSegments(sys *system) (float64, int, error) {
	type seg struct{ dir, file string }
	var groups [][]seg
	for i, st := range sys.stores() {
		dir := sys.dir
		if sys.coord != nil {
			dir = filepath.Join(sys.dir, fmt.Sprintf("node%d", i))
		}
		var g []seg
		for _, s := range st.Stats().Segments {
			g = append(g, seg{dir, s.File})
		}
		groups = append(groups, g)
	}
	if err := sys.shutdown(); err != nil {
		return 0, 0, err
	}
	var total time.Duration
	n := 0
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		var views []*dwarf.CubeView
		var files []*dwarf.ViewFile
		for _, s := range g {
			f, err := dwarf.OpenViewFile(filepath.Join(s.dir, s.file))
			if err != nil {
				return 0, 0, err
			}
			files = append(files, f)
			views = append(views, f.CubeView)
		}
		t0 := time.Now()
		_, err := dwarf.MergeViews(io.Discard, views...)
		total += time.Since(t0)
		for _, f := range files {
			f.Close()
		}
		if err != nil {
			return 0, 0, err
		}
		n += len(g)
	}
	return total.Seconds(), n, nil
}

// viewsPass answers the dashboard draws straight off the set-up's segment
// files, opened read-only, skipping files whose zone maps exclude the
// query as the store's planner does. One span covers all files of a query.
func viewsPass(sys *system, in *liveInputs, ops traceOps, tr *tracer) error {
	var views []*dwarf.ViewFile
	defer func() {
		for _, v := range views {
			v.Close()
		}
	}()
	for i, st := range sys.stores() {
		dir := sys.dir
		if sys.coord != nil {
			dir = filepath.Join(sys.dir, fmt.Sprintf("node%d", i))
		}
		for _, s := range st.Stats().Segments {
			v, err := dwarf.OpenViewFile(filepath.Join(dir, s.File))
			if err != nil {
				return err
			}
			views = append(views, v)
		}
	}
	for c, draws := range ops.draws {
		for j, qi := range draws {
			q := in.cat[qi]
			sels := q.dwarfSels()
			sp := tr.begin(int64(c)<<32|int64(j), "views.query", -1)
			for _, v := range views {
				z := v.ZoneMaps()
				if q.shape == shPoint && !dwarf.ZonesAdmitPoint(z, q.keys) ||
					q.shape != shPoint && !dwarf.ZonesAdmit(z, sels) {
					continue
				}
				if _, err := q.run(v); err != nil {
					return err
				}
			}
			tr.end(sp)
		}
	}
	return nil
}

// replay runs the op stream at one boundary, one goroutine per connection
// as in the TCP passes: the feed poller's ticks and the dashboard draws,
// interleaved as the untraced run interleaved them.
func replay(sys *system, in *liveInputs, ops traceOps, tr *tracer, at string) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	g := newGate(ops.order)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer g.stop()
			if c == 0 && ops.ticks != nil {
				for k := range ops.ticks {
					g.tick(k)
					if errs[c] = replayTick(sys, in, ops, k, tr, at, g); errs[c] != nil {
						return
					}
				}
				return
			}
			for j, qi := range ops.draws[c] {
				g.draw(j)
				if errs[c] = replayQuery(sys, in, in.cat[qi], int64(c)<<32|int64(j), tr, at); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func replayQuery(sys *system, in *liveInputs, q *query, op int64, tr *tracer, at string) error {
	shape := shapeNames[q.shape]
	switch at {
	case "handler":
		m, p, b := q.wire(dims, !in.cluster)
		sp := tr.begin(op, "handler.query", -1)
		st, body := serveMem(sys.handler, m, p, b)
		tr.end(sp)
		if st != 200 {
			return fmt.Errorf("handler %s: status %d: %.200s", shape, st, body)
		}
		return nil
	case "node":
		return nodePartials(sys, q, op, tr)
	}
	sp := tr.begin(op, "store.query", -1)
	sp2 := tr.begin(op, "store.query."+shape, sp)
	_, err := q.run(sys.querier())
	tr.end(sp2)
	tr.end(sp)
	return err
}

// nodePartials answers q on the nodes' stores directly, as the nodes
// answer the Coordinator's /query/partial (a fully bound point on its
// owner only, top-k as the full group map), and merges the partials with
// the kernel's public merge helpers.
func nodePartials(sys *system, q *query, op int64, tr *tracer) error {
	nodes := sys.nodes
	if q.shape == shPoint && !slices.Contains(q.keys, dwarf.All) {
		nodes = nodes[cluster.NodeFor(q.keys, len(nodes)):][:1]
	}
	pq := *q
	if q.shape == shTopK {
		pq.shape = shGroupBy
	}
	var parts []answer
	slowest := time.Duration(0)
	for _, st := range nodes {
		t0 := time.Now()
		a, err := pq.run(st)
		slowest = max(slowest, time.Since(t0))
		if err != nil {
			return err
		}
		parts = append(parts, a)
	}
	tr.add(op, "node.partial", slowest)
	tr.add(op, "node.query."+shapeNames[q.shape], slowest)
	t0 := time.Now()
	switch q.shape {
	case shPoint, shRange:
		var agg dwarf.Aggregate
		for _, p := range parts {
			agg = dwarf.MergeAggregates(agg, p.agg)
		}
	case shGroupBy, shTopK:
		var ms []map[string]dwarf.Aggregate
		for _, p := range parts {
			ms = append(ms, p.groups)
		}
		g := dwarf.MergeGroupMaps(nil, ms...)
		if q.shape == shTopK {
			dwarf.TopKFromGroups(g, q.spec)
		}
	case shPivot:
		var rs [][]dwarf.PivotGroup
		for _, p := range parts {
			rs = append(rs, p.rows)
		}
		dwarf.MergePivotGroups(rs...)
	}
	tr.add(op, "cluster.merge", time.Since(t0))
	return nil
}

// add records a span measured outside begin/end, ending now.
func (t *tracer) add(op int64, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: -1, Start: end - int64(d), End: end})
}

// replayTick appends tick k, lets g count it as acknowledged, and reads one
// of its tuples back.
func replayTick(sys *system, in *liveInputs, ops traceOps, k int, tr *tracer, at string, g *gate) error {
	tick := ops.ticks[k]
	op := int64(k)
	keys := tick[ops.fresh[k]].Dims
	fq := query{shape: shPoint, keys: keys}
	if at == "handler" {
		sp := tr.begin(op, "handler.ingest", -1)
		st, body := serveMem(sys.handler, "POST", "/ingest", ops.bodies[k])
		tr.end(sp)
		if st != 200 {
			return fmt.Errorf("handler ingest: status %d: %.200s", st, body)
		}
		g.acked()
		m, p, _ := fq.wire(dims, !in.cluster)
		sp = tr.begin(op, "handler.fresh", -1)
		st, body = serveMem(sys.handler, m, p, nil)
		tr.end(sp)
		if st != 200 {
			return fmt.Errorf("handler fresh read: status %d: %.200s", st, body)
		}
		return nil
	}
	if at == "node" {
		// The tick lands through the Coordinator as in every pass; its
		// fresh read goes to the owner node's store.
		if err := sys.coord.Append(tick); err != nil {
			return err
		}
		g.acked()
		a, err := sys.nodes[cluster.NodeFor(keys, len(sys.nodes))].Point(keys...)
		if err == nil && !a.Equal(in.ticks.fresh[k]) {
			err = fmt.Errorf("tick %d: owner node read back %v, want %v", k, a, in.ticks.fresh[k])
		}
		return err
	}
	var app interface{ Append([]dwarf.Tuple) error } = sys.store
	if sys.coord != nil {
		app = sys.coord
	}
	sp := tr.begin(op, "store.append", -1)
	err := app.Append(tick)
	tr.end(sp)
	if err != nil {
		return err
	}
	g.acked()
	// The memtable's read-time flush: the first read after an append
	// pays it, an immediate repeat of the same call does not.
	sp = tr.begin(op, "store.fresh", -1)
	t0 := time.Now()
	a, err := sys.querier().Point(keys...)
	t1 := time.Now()
	tr.end(sp)
	if err == nil {
		_, err = sys.querier().Point(keys...)
	}
	if err != nil {
		return err
	}
	tr.add(op, "store.memtable", t1.Sub(t0)-time.Since(t1))
	if !a.Equal(in.ticks.fresh[k]) {
		return fmt.Errorf("tick %d: store read back %v, want %v", k, a, in.ticks.fresh[k])
	}
	return nil
}

// standalone times the same ticks outside the system: appends to an empty
// NoSync store and the memtable's construction step alone
// (dwarf.Incremental AddBatch + Cube, at the store's chunk size).
func standalone(r *runCtx, ops traceOps, tr *tracer) error {
	dir, err := os.MkdirTemp(r.root, "nosync-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := cubestore.Open(dir, cubestore.Options{Dims: dims, NoSync: true})
	if err != nil {
		return err
	}
	for k, tick := range ops.ticks {
		sp := tr.begin(int64(k), "nosync.append", -1)
		err := st.Append(tick)
		tr.end(sp)
		if err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	// A fresh Incremental every seal threshold, as the store seals its
	// memtable and starts a new one.
	var inc *dwarf.Incremental
	held := 0
	for k, tick := range ops.ticks {
		if inc == nil || held+len(tick) > cubestore.DefaultSealTuples {
			if inc, err = dwarf.NewIncremental(dims, cubestore.DefaultChunkTuples); err != nil {
				return err
			}
			held = 0
		}
		held += len(tick)
		sp := tr.begin(int64(k), "incremental.fold", -1)
		err := inc.AddBatch(tick)
		if err == nil {
			_, err = inc.Cube()
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// handlerAllocs measures process-wide mallocs per ServeHTTP call for each
// query shape, sequentially, on the workload's HTTP handler.
func handlerAllocs(sys *system, in *liveInputs) [nShapes]float64 {
	var out [nShapes]float64
	for s := 0; s < nShapes; s++ {
		var qs []*query
		for _, q := range in.cat {
			if q.shape == s && len(qs) < 40 {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			out[s] = math.NaN()
			continue
		}
		type req struct {
			m, p string
			b    []byte
		}
		var reqs []req
		for _, q := range qs {
			m, p, b := q.wire(dims, !in.cluster)
			reqs = append(reqs, req{m, p, b})
		}
		const rounds = 5
		perCall := func(h http.Handler) float64 {
			for _, q := range reqs { // warm caches and pools
				serveMem(h, q.m, q.p, q.b)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < rounds; i++ {
				for _, q := range reqs {
					serveMem(h, q.m, q.p, q.b)
				}
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(reqs))
		}
		// The in-memory request and writer cost the same against a handler
		// that only writes a fixed body; that share is the harness's.
		null := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write([]byte("{}"))
		})
		out[s] = perCall(sys.handler) - perCall(null)
	}
	return out
}

// ledgerFeed prints the feed_to_cube ledger: each stage's self time and
// its share of the traced op.
func ledgerFeed(r *runCtx, totalS float64) {
	r.logf("  ledger feed_to_cube (traced op median %.4f s):", totalS)
	for _, row := range []struct{ name, metric string }{
		{"jsonstream parse", "jsonstream.parse_s"}, {"dwarf build", "dwarf.build_s"},
		{"dwarf encode", "dwarf.encode_s"}, {"dwarf open", "dwarf.open_s"}, {"mapper save", "mapper.save_s"},
	} {
		v := r.metrics[row.metric]
		r.logf("    %-18s self %10.4f s  share %5.1f%%", row.name, v, 100*v/totalS)
	}
	ledgerCounters(r)
}

// ledgerHTTP prints the HTTP workloads' ledger: per boundary and shape, the
// median total time, the self time against the next boundary down and its
// share of the TCP round trip.
func ledgerHTTP(r *runCtx, in *liveInputs, ops traceOps, tr *tracer, opUs, baseUs float64) {
	r.logf("  (a negative self time means the boundary below did work this one skipped: a cached or rollup")
	r.logf("   answer never runs the kernel the views pass runs; or the boundary's cost is within the noise)")
	r.logf("  ledger %s: tracing overhead %.1f us on the op median (traced %.1f us, untraced %.1f us)",
		r.workload, opUs-baseUs, opUs, baseUs)
	r.logf("    %-8s %-28s %12s %12s %12s %8s", "shape", "boundary", "total_us", "self_us", "share", "n")
	store := "store"
	if in.cluster {
		store = "coordinator"
	}
	byShape := func(prefix string, s int) []int64 {
		var out []int64
		for _, sp := range tr.spans {
			if sp.Name == prefix && ops.shapeOf(sp, in) == s {
				out = append(out, sp.End-sp.Start)
			}
		}
		return out
	}
	for s := 0; s < nShapes; s++ {
		tcp := byShape("tcp.query", s)
		if len(tcp) == 0 {
			continue
		}
		levels := []struct{ name, span string }{
			{"tcp round trip (wire)", "tcp.query"}, {"ServeHTTP (serve)", "handler.query"},
			{store + " call", "store.query"}, {"segment views (kernel)", "views.query"},
		}
		top := medianUs(tcp)
		for i, lv := range levels {
			d := byShape(lv.span, s)
			tot := medianUs(d)
			self := tot
			if i+1 < len(levels) {
				self = tot - medianUs(byShape(levels[i+1].span, s))
			}
			r.logf("    %-8s %-28s %12.1f %12.1f %11.1f%% %8d", shapeNames[s], lv.name, tot, self, 100*self/top, len(d))
		}
	}
	if in.ticks != nil {
		ack, fresh := medianUs(tr.durations("tcp.ingest")), medianUs(tr.durations("tcp.fresh"))
		r.logf("    ingest: tcp ack %.1f us, handler ingest %.1f us, %s append %.1f us, nosync append %.1f us, incremental fold %.1f us",
			ack, medianUs(tr.durations("handler.ingest")), store, medianUs(tr.durations("store.append")),
			medianUs(tr.durations("nosync.append")), medianUs(tr.durations("incremental.fold")))
		r.logf("    fresh read: tcp %.1f us, handler %.1f us, %s %.1f us, memtable flush %.1f us",
			fresh, medianUs(tr.durations("handler.fresh")), store, medianUs(tr.durations("store.fresh")),
			medianUs(tr.durations("store.memtable")))
	}
	ledgerCounters(r)
}

// shapeOf finds a query span's shape from its op id: connection and draw.
func (o traceOps) shapeOf(sp span, in *liveInputs) int {
	c, j := int(sp.Op>>32), int(sp.Op&0xffffffff)
	if c < len(o.draws) && j < len(o.draws[c]) {
		return in.cat[o.draws[c][j]].shape
	}
	return -1
}

// ledgerCounters prints every per-layer metric with the end-to-end metrics
// it should move and where its layer does most and little work. A metric
// the workload does not measure prints as "-".
func ledgerCounters(r *runCtx) {
	r.logf("    %-40s %14s %-6s %s", "layer metric", "value", "unit", "moves  [most work / little work]")
	for _, d := range r.defs.perLayer {
		l := r.defs.layers[d.Name]
		v := "-"
		if l.measures(r.workload) {
			v = fmt.Sprintf("%.4f", r.metrics[d.Name])
		}
		r.logf("    %-40s %14s %-6s %s  [%s / %s]", d.Name, v, d.Unit,
			strings.Join(l.Moves, ","), l.MostWork, l.LittleWork)
	}
}
