package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cubestore"
	"repro/internal/dwarf"
)

const setupRepeats = 5

// liveInputs are the seed-derived inputs of the three HTTP workloads.
type liveInputs struct {
	week      []dwarf.Tuple // dropped after set-up; regenerated for the end check
	cat       []*query
	expect    []answer // batch-oracle answers over the Week
	weekCells cellTable
	// nodeCells splits the Week's (Area, Status) cells by the node that
	// holds them: one table for a single store, one per cluster node.
	nodeCells []cellTable
	ticks     *tickSet // nil for dashboard
	cluster   bool
}

// tickSet holds the preformatted feed ticks: one /ingest POST and one
// fresh point GET per tick, in off-heap memory.
type tickSet struct {
	post, get [][]byte
	size      []int
	fresh     []dwarf.Aggregate // the exact answer of each fresh read
}

func (t *tickSet) n() int { return len(t.post) }

// ticksFor sizes the tick supply so a run never exhausts it.
func ticksFor(seconds float64) int { return int(seconds*500) + 1000 }

func loadLiveInputs(r *runCtx) (*liveInputs, error) {
	_, recs, err := weekRecords(r.seed)
	if err != nil {
		return nil, err
	}
	in := &liveInputs{week: weekTuples(recs), cluster: r.workload == "cluster_mixed"}
	if in.cat, err = catalogue(r.seed, in.week); err != nil {
		return nil, err
	}
	oracle, err := dwarf.New(dims, in.week)
	if err != nil {
		return nil, err
	}
	for _, q := range in.cat {
		a, err := q.run(oracle)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		if r.perturb {
			a = perturb(q, a)
		}
		in.expect = append(in.expect, a)
	}
	if in.weekCells, err = cellsOf(oracle); err != nil {
		return nil, err
	}
	in.nodeCells = []cellTable{in.weekCells}
	if in.cluster {
		in.nodeCells = make([]cellTable, clusterNodes)
		for i := range in.nodeCells {
			in.nodeCells[i] = cellTable{}
		}
		total := cellTable{}
		for _, t := range in.week {
			key := [2]string{t.Dims[dArea], t.Dims[dStatus]}
			n := cluster.NodeFor(t.Dims, clusterNodes)
			in.nodeCells[n][key] = addAgg(in.nodeCells[n][key], dwarf.NewAggregate(t.Measure))
			total[key] = addAgg(total[key], dwarf.NewAggregate(t.Measure))
		}
		if !reflect.DeepEqual(total, in.weekCells) {
			return nil, fmt.Errorf("per-node Week cells do not add up to the oracle's")
		}
	}
	if r.workload == "dashboard" {
		return in, nil
	}
	n := ticksFor(r.seconds)
	ts := &tickSet{}
	postMem, err := r.mem.bytes(n * 8 << 10)
	if err != nil {
		return nil, err
	}
	getMem, err := r.mem.bytes(n * 256)
	if err != nil {
		return nil, err
	}
	var scratch []byte
	var ferr error
	put := func(arena *[]byte, b []byte) []byte {
		if len(*arena)+len(b) > cap(*arena) {
			ferr = fmt.Errorf("tick arena full")
			return nil
		}
		start := len(*arena)
		*arena = append(*arena, b...)
		return (*arena)[start:len(*arena):len(*arena)]
	}
	err = forTicks(r.seed, n, func(k int, tick []dwarf.Tuple, fresh int) {
		scratch = tickBody(scratch[:0], tick)
		ts.post = append(ts.post, put(&postMem, rawRequest("POST", "/ingest", scratch)))
		q := query{shape: shPoint, keys: tick[fresh].Dims}
		m, p, _ := q.wire(dims, !in.cluster)
		ts.get = append(ts.get, put(&getMem, rawRequest(m, p, nil)))
		ts.size = append(ts.size, len(tick))
		want := dwarf.NewAggregate(tick[fresh].Measure)
		if r.perturb {
			want.Sum++
		}
		ts.fresh = append(ts.fresh, want)
	})
	if err == nil {
		err = ferr
	}
	in.ticks = ts
	return in, err
}

// perturb corrupts an oracle answer for the negative self-test.
func perturb(q *query, a answer) answer {
	switch q.shape {
	case shPoint, shRange:
		a.agg.Sum++
	case shGroupBy:
		m := map[string]dwarf.Aggregate{}
		for k, v := range a.groups {
			v.Count++
			m[k] = v
		}
		a.groups = m
	case shPivot:
		a.rows = append([]dwarf.PivotGroup{{Keys: []string{"x", "y"}}}, a.rows...)
	case shTopK:
		a.top = append(a.top, dwarf.GroupEntry{Key: "x"})
	}
	return a
}

func (in *liveInputs) start(r *runCtx, countPartials bool) (*system, error) {
	if in.cluster {
		return startCluster(r.root, in.week, countPartials)
	}
	return startLive(r.root, in.week, r.workload == "dashboard")
}

func (in *liveInputs) request(q *query) []byte {
	if in.cluster {
		return q.gw
	}
	return q.live
}

// setUp starts the system setupRepeats times and keeps the last, reporting
// the median set-up time.
func setUp(r *runCtx, in *liveInputs, countPartials bool) (*system, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		s, err := in.start(r, countPartials)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRepeats-1 {
			r.set("setup_s", median(times))
			r.logf("  setup_s %.4f s (median of %d set-ups: %v)", median(times), len(times), fmtSecs(times))
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	panic("unreachable")
}

func fmtSecs(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", x)
	}
	return b.String()
}

// verifyCatalogue sends every catalogue query once, decodes each answer
// and compares it with the batch oracle. The verified bodies are what every
// later response to the same query must equal byte for byte.
func verifyCatalogue(r *runCtx, sys *system, in *liveInputs) ([][]byte, error) {
	c, err := dial(sys.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	arena, err := r.mem.bytes(64 << 20)
	if err != nil {
		return nil, err
	}
	verified := make([][]byte, len(in.cat))
	for i, q := range in.cat {
		r.attempted++
		st, body, err := c.do(in.request(q))
		if err != nil {
			return nil, err
		}
		if st != 200 {
			r.fail("catalogue %d: status %d: %.200s", i, st, body)
			continue
		}
		got, err := q.decode(body)
		if err != nil || !got.equal(in.expect[i]) {
			r.fail("catalogue %d (%s): answer differs from the oracle: %.300s", i, shapeNames[q.shape], body)
			continue
		}
		if len(arena)+len(body) > cap(arena) {
			return nil, fmt.Errorf("catalogue bodies exceed their arena")
		}
		start := len(arena)
		arena = append(arena, body...)
		verified[i] = arena[start:len(arena):len(arena)]
	}
	return verified, nil
}

var errWritesStopped = errors.New("writes stopped after a refused tick")

// dashRec is one all-time answer received while ticks were landing: it
// must equal the oracle over the Week plus some tick prefix in [lo, hi].
type dashRec struct {
	q, lo, hi  int32
	off, bytes int32
}

type loadResult struct {
	perConn    [2]int // ops each connection completed
	elapsed    float64
	queries    []int64 // dashboard-connection latencies, ns
	ops        []int64 // the workload's op latencies, ns
	ack, fresh []int64 // ingest ack and fresh-read latencies, ns
	ticks      int
	mallocs    uint64
	heapPeak   float64 // MiB
	recs       []dashRec
	bodies     []byte // recorded response bodies
	ackBody    [][2]int32
	freshBody  [][2]int32
	sealMax    int
	// before and after are the summed store counters at the boundaries
	// of the measured phase.
	before, after cubestore.Stats
	order         *interleave // under writes
}

// interleave records how the two connections of a write workload
// interleaved: for each dashboard draw, the ticks acknowledged before it
// was sent, and for each tick, the draws sent before it was posted.
type interleave struct {
	drawAfter, tickAfter []int64
}

// gate holds a replay to a recorded interleaving: a draw waits for the
// ticks acknowledged before it, a tick for the draws sent before it. A
// nil gate holds nothing back.
type gate struct {
	il           *interleave
	mu           sync.Mutex
	cond         sync.Cond
	ticks, draws int64
	open         bool // false once either side stopped
}

func newGate(il *interleave) *gate {
	if il == nil {
		return nil
	}
	g := &gate{il: il, open: true}
	g.cond.L = &g.mu
	return g
}

// draw waits until draw j may be sent and counts it as sent.
func (g *gate) draw(j int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for g.open && j < len(g.il.drawAfter) && g.ticks < g.il.drawAfter[j] {
		g.cond.Wait()
	}
	g.draws++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// tick waits until tick k may be posted.
func (g *gate) tick(k int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for g.open && k < len(g.il.tickAfter) && g.draws < g.il.tickAfter[k] {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// acked counts one more acknowledged tick.
func (g *gate) acked() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.ticks++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// stop releases every wait: the other side has stopped for good.
func (g *gate) stop() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.open = false
	g.mu.Unlock()
	g.cond.Broadcast()
}

// heapSampler tracks the peak live Go heap per window of the measured
// phase: a fixed time window, or an op when the caller cuts the windows.
// The value only changes when a GC cycle ends, so a 10 ms poll sees every
// cycle's value while waking the scheduler rarely.
type heapSampler struct {
	peak  atomic.Uint64
	mu    sync.Mutex
	peaks []float64 // one per closed window, bytes
	stop  chan struct{}
	wg    sync.WaitGroup
}

// startHeapSampler starts sampling; window > 0 closes a window every
// window, else only cut does.
func startHeapSampler(window time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		next := time.Now().Add(window)
		for {
			metrics.Read(s)
			for v := s[0].Value.Uint64(); ; {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			if window > 0 && time.Now().After(next) {
				h.cut()
				next = next.Add(window)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// cut closes the current window.
func (h *heapSampler) cut() {
	h.mu.Lock()
	h.peaks = append(h.peaks, float64(h.peak.Swap(0)))
	h.mu.Unlock()
}

// done stops the sampler and returns the median of the window peaks in
// MiB: the peak a typical window of the run reaches. The run's single
// highest sample hangs on where one GC cycle happened to end.
func (h *heapSampler) done() float64 {
	close(h.stop)
	h.wg.Wait()
	if len(h.peaks) == 0 {
		h.cut()
	}
	return median(h.peaks) / (1 << 20)
}

// load drives the closed-loop connections for the measured phase. With
// ticks, connection 0 is the feed poller (POST a tick, then read one of its
// tuples back) and connection 1 replays the dashboard stream; without,
// both replay it.
//
// limits, when set, also stop each connection after that many ops, tr
// records a span per request and g holds the connections to a recorded
// interleaving: the traced run replays the untraced run's op stream this
// way.
func load(r *runCtx, sys *system, in *liveInputs, verified [][]byte, seconds float64, limits [2]int, tr *tracer, g *gate) (*loadResult, error) {
	const conns = 2
	writes := in.ticks != nil
	res := &loadResult{}
	maxSamples := max(int(seconds*100000)+1000, limits[0], limits[1])
	var err error
	lat := make([][]int64, conns)
	for i := range lat {
		if lat[i], err = r.mem.int64s(maxSamples); err != nil {
			return nil, err
		}
	}
	if res.bodies, err = r.mem.bytes(256 << 20); err != nil {
		return nil, err
	}
	var recs []dashRec
	if writes {
		for _, p := range []*[]int64{&res.ack, &res.fresh, &res.ops} {
			if *p, err = r.mem.int64s(in.ticks.n()); err != nil {
				return nil, err
			}
		}
		recMem, err := r.mem.bytes(maxSamples * 20)
		if err != nil {
			return nil, err
		}
		recs = unsafeSlice[dashRec](recMem, maxSamples)
		res.order = &interleave{}
		if res.order.drawAfter, err = r.mem.int64s(maxSamples); err != nil {
			return nil, err
		}
		if res.order.tickAfter, err = r.mem.int64s(in.ticks.n()); err != nil {
			return nil, err
		}
		res.ackBody = make([][2]int32, 0, in.ticks.n())
		res.freshBody = make([][2]int32, 0, in.ticks.n())
	}
	cs := make([]*conn, conns)
	for i := range cs {
		if cs[i], err = dial(sys.addr); err != nil {
			return nil, err
		}
		defer cs[i].close()
	}
	// Grow every connection's body buffer before measuring.
	for _, c := range cs {
		for i := range in.cat {
			if _, _, err := c.do(in.request(in.cat[i])); err != nil {
				return nil, err
			}
		}
	}
	var posted, acked, sent atomic.Int32
	var bodyMu sync.Mutex
	record := func(body []byte) (int32, int32, bool) {
		bodyMu.Lock()
		defer bodyMu.Unlock()
		if len(res.bodies)+len(body) > cap(res.bodies) {
			return 0, 0, false
		}
		off := len(res.bodies)
		res.bodies = append(res.bodies, body...)
		return int32(off), int32(len(body)), true
	}
	failed := make([]int, conns)
	attempted := make([]int, conns)
	errs := make([]error, conns)

	more := func(i, j int, deadline time.Time) bool {
		return (limits[i] == 0 || j < limits[i]) && time.Now().Before(deadline)
	}
	// query sends the j-th draw of connection i and checks the answer.
	query := func(i, j, qi int) error {
		if writes {
			g.draw(j)
			if len(res.order.drawAfter) == cap(res.order.drawAfter) {
				return fmt.Errorf("more than %d draws", j)
			}
			res.order.drawAfter = append(res.order.drawAfter, int64(acked.Load()))
			sent.Add(1)
		}
		lo := acked.Load()
		sp := tr.begin(int64(i)<<32|int64(j), "tcp.query", -1)
		t0 := time.Now()
		st, body, err := cs[i].do(in.request(in.cat[qi]))
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		hi := posted.Load()
		attempted[i]++
		res.perConn[i]++
		if len(lat[i]) < cap(lat[i]) {
			lat[i] = append(lat[i], int64(d))
		}
		switch {
		case st != 200 || verified[qi] == nil:
			failed[i]++
		case writes && in.cat[qi].allTime:
			off, n, ok := record(body)
			if !ok || len(recs) == cap(recs) {
				failed[i]++
				break
			}
			recs = append(recs, dashRec{q: int32(qi), lo: lo, hi: hi, off: off, bytes: n})
		case !bytes.Equal(body, verified[qi]):
			failed[i]++
		}
		return nil
	}
	dashboard := func(i int, deadline time.Time) {
		z := zipfStream(r.seed, i, len(in.cat))
		for j := 0; more(i, j, deadline); j++ {
			if errs[i] = query(i, j, int(z.Uint64())); errs[i] != nil {
				return
			}
		}
	}
	tick := func(k int) error {
		c := cs[0]
		g.tick(k)
		res.order.tickAfter = append(res.order.tickAfter, int64(sent.Load()))
		posted.Store(int32(k + 1))
		sp := tr.begin(int64(k), "tcp.ingest", -1)
		t0 := time.Now()
		st, body, err := c.do(in.ticks.post[k])
		t1 := time.Now()
		tr.end(sp)
		if err != nil {
			return err
		}
		attempted[0]++
		res.perConn[0]++
		res.ticks = k + 1
		off, n, ok := record(body)
		if st != 200 || !ok {
			// A refused tick ends the writes, so the acknowledged
			// multiset stays a prefix of the ticks.
			failed[0]++
			return errWritesStopped
		}
		res.ackBody = append(res.ackBody, [2]int32{off, n})
		acked.Store(int32(k + 1))
		g.acked()
		sp = tr.begin(int64(k), "tcp.fresh", -1)
		st, body, err = c.do(in.ticks.get[k])
		t2 := time.Now()
		tr.end(sp)
		if err != nil {
			return err
		}
		if off, n, ok = record(body); !ok || st != 200 {
			failed[0]++
		}
		res.freshBody = append(res.freshBody, [2]int32{off, n})
		res.ack = append(res.ack, int64(t1.Sub(t0)))
		res.fresh = append(res.fresh, int64(t2.Sub(t1)))
		res.ops = append(res.ops, int64(t2.Sub(t0)))
		return nil
	}
	poller := func(deadline time.Time) {
		for k := 0; k < in.ticks.n() && more(0, k, deadline); k++ {
			if errs[0] = tick(k); errs[0] != nil {
				if errs[0] == errWritesStopped {
					errs[0] = nil
				}
				return
			}
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.before = sys.statsSum()
	heap := startHeapSampler(time.Second)
	sealStop := make(chan struct{})
	var sealWG sync.WaitGroup
	if tr != nil { // Stats allocates: traced runs only
		sealWG.Add(1)
		go func() {
			defer sealWG.Done()
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-sealStop:
					return
				case <-t.C:
					for _, st := range sys.stores() {
						res.sealMax = max(res.sealMax, st.Stats().SealQueueDepth)
					}
				}
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer g.stop()
			if writes && i == 0 {
				poller(deadline)
			} else {
				dashboard(i, deadline)
			}
		}(i)
	}
	wg.Wait()
	res.elapsed = time.Since(start).Seconds()
	res.after = sys.statsSum()
	close(sealStop)
	sealWG.Wait()
	res.heapPeak = heap.done()
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	for i := 0; i < conns; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("connection %d: %w", i, errs[i])
		}
		r.attempted += attempted[i]
		for j := 0; j < failed[i]; j++ {
			r.fail("connection %d: refused or wrong answer", i)
		}
	}
	if writes {
		res.queries = lat[1]
	} else {
		res.queries = append(lat[0], lat[1]...)
		res.ops = res.queries
	}
	res.recs = recs
	return res, nil
}

func runHTTP(r *runCtx) error {
	in, err := loadLiveInputs(r)
	if err != nil {
		return err
	}
	if r.trace {
		return traceHTTP(r, in)
	}
	sys, err := setUp(r, in, false)
	if err != nil {
		return err
	}
	if err := measureHTTP(r, sys, in); err != nil {
		return errors.Join(err, sys.close())
	}
	return sys.close()
}

// measureHTTP is the untraced run's measured phase on a set-up system and
// the checks after it.
func measureHTTP(r *runCtx, sys *system, in *liveInputs) error {
	// Storage is read right after set-up, where it depends only on the
	// seed: a run's end state depends on where in a seal and compaction
	// cycle the deadline fell.
	r.set("stored_bytes_per_fact", float64(dirBytes(sys.dir))/float64(len(in.week)))
	in.week = nil // regenerated from the seed for the end check
	verified, err := verifyCatalogue(r, sys, in)
	if err != nil {
		return err
	}
	reqs := make([][]byte, len(in.cat))
	for i, q := range in.cat {
		reqs[i] = in.request(q)
	}
	clientAllocs, err := clientAllocsPerRequest(reqs, 20000)
	if err != nil {
		return fmt.Errorf("null-handler check: %w", err)
	}
	r.logf("  load generator: %.4f allocs/request against a null handler (20000 requests)", clientAllocs)
	if clientAllocs > 0.01 {
		return fmt.Errorf("load generator allocates %.4f times per request", clientAllocs)
	}

	res, err := load(r, sys, in, verified, r.seconds, [2]int{}, nil, nil)
	if err != nil {
		return err
	}
	if err := checkAfterLoad(r, sys, in, res); err != nil {
		return err
	}
	st := sys.statsSum()
	if st.LastSealError != "" {
		r.fail("store maintenance error: %s", st.LastSealError)
	}
	r.logf("  store directories at the end: %d bytes for %d facts (%.2f bytes per fact)",
		dirBytes(sys.dir), st.TotalTuples, float64(dirBytes(sys.dir))/float64(st.TotalTuples))

	ops := len(res.ops)
	r.timing("op", res.ops)
	r.set("ops_per_s", float64(ops)/res.elapsed)
	r.timing("query", res.queries)
	r.set("queries_per_s", float64(len(res.queries))/res.elapsed)
	r.set("allocs_per_op", float64(res.mallocs)/float64(ops))
	r.set("heap_peak_mb", res.heapPeak)
	r.logf("  ops %d in %.3f s: ops_per_s %.2f, queries_per_s %.2f, allocs_per_op %.1f, heap_peak_mb %.2f, stored_bytes_per_fact %.2f",
		ops, res.elapsed, r.metrics["ops_per_s"], r.metrics["queries_per_s"], r.metrics["allocs_per_op"],
		r.metrics["heap_peak_mb"], r.metrics["stored_bytes_per_fact"])
	if in.ticks != nil {
		r.timing("ingest_ack", res.ack)
		r.timing("fresh_read", res.fresh)
		tuples := 0
		for _, n := range in.ticks.size[:res.ticks] {
			tuples += n
		}
		r.logf("  ingest: %d ticks, %d tuples, ingest_tuples_per_s %.1f; seals %d, compactions %d, seal_queue_depth_max %d",
			res.ticks, tuples, float64(tuples)/res.elapsed, st.Seals, st.Compactions, res.sealMax)
		if r.workload == "ingest_fresh" && (st.Seals < 1 || st.Compactions < 1) {
			r.fail("ingest_fresh crossed %d seals and %d compactions; the run needs at least one of each", st.Seals, st.Compactions)
		}
		if res.ticks == in.ticks.n() {
			r.fail("the run used up all %d ticks", res.ticks)
		}
	}
	d := func(f func(cubestore.Stats) int64) int64 { return f(res.after) - f(res.before) }
	r.logf("  store (measured phase): compactions %d, cache hits %d misses %d stale %d, rollup hits %d, segments scanned %d pruned %d",
		d(func(s cubestore.Stats) int64 { return s.Compactions }),
		d(func(s cubestore.Stats) int64 { return s.CacheHits }), d(func(s cubestore.Stats) int64 { return s.CacheMisses }),
		d(func(s cubestore.Stats) int64 { return s.CacheStale }), d(func(s cubestore.Stats) int64 { return s.RollupHits }),
		d(func(s cubestore.Stats) int64 { return s.SegmentsScanned }), d(func(s cubestore.Stats) int64 { return s.SegmentsPruned }))
	return nil
}

// checkAfterLoad verifies what the load recorded — acks, fresh reads and
// all-time answers received under writes — and then checks every grouped
// catalogue query, plus full all-time group-bys, against a batch dwarf.New
// oracle over the final acknowledged multiset.
func checkAfterLoad(r *runCtx, sys *system, in *liveInputs, res *loadResult) error {
	_, recs, err := weekRecords(r.seed)
	if err != nil {
		return err
	}
	final := weekTuples(recs)
	if in.ticks != nil {
		total := len(final)
		for k := 0; k < len(res.ackBody); k++ {
			var ack struct {
				Appended *int `json:"appended"`
				Total    *int `json:"total_tuples"`
			}
			total += in.ticks.size[k]
			b := res.bodies[res.ackBody[k][0] : res.ackBody[k][0]+res.ackBody[k][1]]
			if err := json.Unmarshal(b, &ack); err != nil || ack.Appended == nil || *ack.Appended != in.ticks.size[k] ||
				(!in.cluster && (ack.Total == nil || *ack.Total != total)) {
				r.fail("tick %d: bad ack %s", k, b)
			}
		}
		pt := query{shape: shPoint}
		for k, fb := range res.freshBody {
			got, err := pt.decode(res.bodies[fb[0] : fb[0]+fb[1]])
			if err != nil || !got.agg.Equal(in.ticks.fresh[k]) || got.agg.Count != 1 {
				r.fail("tick %d: fresh read %s, want exactly the tuple (%v)", k, res.bodies[fb[0]:fb[0]+fb[1]], in.ticks.fresh[k])
			}
		}
		err := forTicks(r.seed, len(res.ackBody), func(k int, tick []dwarf.Tuple, _ int) {
			final = append(final, tick...)
		})
		if err != nil {
			return err
		}
		if err := checkAllTime(r, in, res); err != nil {
			return err
		}
	}
	oracle, err := dwarf.New(dims, final)
	if err != nil {
		return err
	}
	c, err := dial(sys.addr)
	if err != nil {
		return err
	}
	defer c.close()
	checks := []*query{}
	for _, q := range in.cat {
		if q.shape == shGroupBy || q.shape == shPivot || q.shape == shTopK {
			checks = append(checks, q)
		}
	}
	all := make([]sel, len(dims))
	for _, q := range []*query{
		{shape: shGroupBy, dim: dStation, sels: all},
		{shape: shGroupBy, dim: dDay, sels: all},
		{shape: shPivot, dims: []int{dMonth, dDay, dArea}, sels: all},
		{shape: shTopK, dim: dStation, sels: all, spec: dwarf.TopKSpec{K: 20, By: dwarf.BySum}},
	} {
		m, p, b := q.wire(dims, !in.cluster)
		q.live = rawRequest(m, p, b)
		q.gw = q.live
		checks = append(checks, q)
	}
	for _, q := range checks {
		want, err := q.run(oracle)
		if err != nil {
			return err
		}
		if r.perturb {
			want = perturb(q, want)
		}
		r.attempted++
		st, body, err := c.do(in.request(q))
		if err != nil {
			return err
		}
		got, derr := q.decode(body)
		if st != 200 || derr != nil || !got.equal(want) {
			r.fail("end check %s: answer differs from the oracle over the final multiset: %.300s", shapeNames[q.shape], body)
		}
	}
	return nil
}

// cellTable is an (Area, Status) pivot: enough to answer every all-time
// catalogue query, whose selectors touch only those two dimensions.
type cellTable map[[2]string]dwarf.Aggregate

func cellsOf(src querier) (cellTable, error) {
	rows, err := src.Pivot([]int{dArea, dStatus}, make([]dwarf.Selector, len(dims)))
	if err != nil {
		return nil, err
	}
	t := cellTable{}
	for _, row := range rows {
		t[[2]string{row.Keys[0], row.Keys[1]}] = row.Agg
	}
	return t, nil
}

func addAgg(a, b dwarf.Aggregate) dwarf.Aggregate {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	return dwarf.Aggregate{Sum: a.Sum + b.Sum, Count: a.Count + b.Count, Min: min(a.Min, b.Min), Max: max(a.Max, b.Max)}
}

// answerFromCells answers an all-time query from (Area, Status) cells.
func answerFromCells(q *query, cells cellTable) answer {
	admit := func(d int, key string) bool {
		s := q.sels[d]
		if len(s.keys) == 0 {
			return true
		}
		for _, k := range s.keys {
			if k == key {
				return true
			}
		}
		return false
	}
	var a answer
	groups := map[string]dwarf.Aggregate{}
	for k, v := range cells {
		if !admit(dArea, k[0]) || !admit(dStatus, k[1]) {
			continue
		}
		switch q.shape {
		case shRange:
			a.agg = addAgg(a.agg, v)
		case shPivot:
			a.rows = append(a.rows, dwarf.PivotGroup{Keys: []string{k[0], k[1]}, Agg: v})
		case shGroupBy, shTopK:
			g := k[0]
			if q.dim == dStatus {
				g = k[1]
			}
			groups[g] = addAgg(groups[g], v)
		}
	}
	switch q.shape {
	case shPivot:
		sort.Slice(a.rows, func(i, j int) bool {
			x, y := a.rows[i].Keys, a.rows[j].Keys
			return x[0] < y[0] || x[0] == y[0] && x[1] < y[1]
		})
	case shGroupBy:
		a.groups = groups
	case shTopK:
		for k, v := range groups {
			a.top = append(a.top, dwarf.GroupEntry{Key: k, Agg: v})
		}
		by := q.spec.By
		sort.Slice(a.top, func(i, j int) bool {
			x, y := by.Of(a.top[i].Agg), by.Of(a.top[j].Agg)
			return x > y || x == y && a.top[i].Key < a.top[j].Key
		})
		if q.spec.K > 0 && len(a.top) > q.spec.K {
			a.top = a.top[:q.spec.K]
		}
	}
	return a.norm()
}

// checkAllTime verifies each all-time answer received under writes. Every
// store applies a tick's tuples (its hash slice of them, in a cluster)
// atomically, and a cluster query reads each node at its own moment, so
// the answer must equal the Week's cells plus, per node, the cells of some
// tick prefix between the ticks acknowledged before the query was sent and
// the ticks posted before its answer arrived.
func checkAllTime(r *runCtx, in *liveInputs, res *loadResult) error {
	if len(res.recs) == 0 {
		return nil
	}
	nodes := len(in.nodeCells)
	cur := make([]cellTable, nodes)
	clone := func() []cellTable {
		out := make([]cellTable, nodes)
		for i, t := range cur {
			out[i] = cellTable{}
			for k, v := range t {
				out[i][k] = v
			}
		}
		return out
	}
	for i, t := range in.nodeCells {
		cur[i] = t
	}
	snaps := [][]cellTable{clone()}
	acked := len(res.ackBody)
	err := forTicks(r.seed, acked, func(k int, tick []dwarf.Tuple, _ int) {
		for _, t := range tick {
			n := 0
			if nodes > 1 {
				n = cluster.NodeFor(t.Dims, nodes)
			}
			key := [2]string{t.Dims[dArea], t.Dims[dStatus]}
			cur[n][key] = addAgg(cur[n][key], dwarf.NewAggregate(t.Measure))
		}
		snaps = append(snaps, clone())
	})
	if err != nil {
		return err
	}
	for _, rec := range res.recs {
		q := in.cat[rec.q]
		got, err := q.decode(res.bodies[rec.off : rec.off+rec.bytes])
		if err == nil && !matchesSomePrefix(r, q, got, snaps, int(rec.lo), min(int(rec.hi), acked)) {
			err = fmt.Errorf("no tick prefix in [%d, %d] matches", rec.lo, rec.hi)
		}
		if err != nil {
			r.fail("all-time %s answer under writes: %v", shapeNames[q.shape], err)
		}
	}
	return nil
}

// matchesSomePrefix tries every combination of per-node prefixes in
// [lo, hi].
func matchesSomePrefix(r *runCtx, q *query, got answer, snaps [][]cellTable, lo, hi int) bool {
	nodes := len(snaps[0])
	pick := make([]int, nodes)
	for i := range pick {
		pick[i] = lo
	}
	for {
		cells := cellTable{}
		for n, k := range pick {
			for key, v := range snaps[k][n] {
				cells[key] = addAgg(cells[key], v)
			}
		}
		want := answerFromCells(q, cells)
		if r.perturb {
			want = perturb(q, want)
		}
		if got.equal(want) {
			return true
		}
		i := 0
		for ; i < nodes && pick[i] == hi; i++ {
			pick[i] = lo
		}
		if i == nodes {
			return false
		}
		pick[i]++
	}
}
