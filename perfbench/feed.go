package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dwarf"
	"repro/internal/jsonstream"
	"repro/internal/mapper"
	"repro/internal/smartcity"
)

// feedMaxOps caps a feed_to_cube run's ops: set-up prepares one
// preloaded store per op. About five ops fit in a 20 s run.
const feedMaxOps = 8

// batteryPasses is how many times each op serves the query battery off
// the fresh view, like a dashboard reading it; the first pass is checked.
// A single pass lasts about 25 ms, too short a stretch of the run for a
// steady latency figure.
const batteryPasses = 10

// feedStats is one feed_to_cube op, stage by stage.
type feedStats struct {
	parse, build, encode, open, battery, save time.Duration
	served, total                             time.Duration
	encoded                                   int
	nodes, cells                              int
	nosqlBytes                                int64
	mallocs                                   float64 // process-wide, during the op
	query                                     summary // the op's battery latencies, ns
}

// feedOp runs the paper's path once: parse the feed document, build the
// cube with GOMAXPROCS workers, encode it with the offset index, open a
// zero-copy view, serve the query battery off the view (the first pass
// checked), then persist the cube into a NoSQL-DWARF store that already
// holds the previous day: open, bulk insert, close.
func feedOp(r *runCtx, doc []byte, cat []*query, expect []answer, pre preloaded, qlat *[]int64, tr *tracer, op int64) (feedStats, error) {
	var fs feedStats // zero on error paths
	root := tr.begin(op, "feed_to_cube", -1)
	t0 := time.Now()
	sp := tr.begin(op, "jsonstream.Parse", root)
	tuples, err := jsonstream.Parse(bytes.NewReader(doc), jsonstream.BikeFeedSpec())
	tr.end(sp)
	if err != nil {
		return fs, err
	}
	t1 := time.Now()
	sp = tr.begin(op, "dwarf.NewParallel", root)
	cube, err := dwarf.NewParallel(dims, tuples, runtime.GOMAXPROCS(0))
	tr.end(sp)
	if err != nil {
		return fs, err
	}
	t2 := time.Now()
	var buf bytes.Buffer
	sp = tr.begin(op, "dwarf.EncodeIndexed", root)
	err = cube.EncodeIndexed(&buf)
	tr.end(sp)
	if err != nil {
		return fs, err
	}
	t3 := time.Now()
	sp = tr.begin(op, "dwarf.OpenView", root)
	view, err := dwarf.OpenView(buf.Bytes())
	tr.end(sp)
	if err != nil {
		return fs, err
	}
	t4 := time.Now()
	sp = tr.begin(op, "battery", root)
	for pass := 0; pass < batteryPasses; pass++ {
		for i, q := range cat {
			qs := tr.begin(op, "dwarf.Query."+shapeNames[q.shape], sp)
			q0 := time.Now()
			got, err := q.run(view)
			*qlat = append(*qlat, int64(time.Since(q0)))
			tr.end(qs)
			if pass > 0 {
				continue
			}
			r.attempted++
			if err != nil || !got.equal(expect[i]) {
				r.fail("battery query %d (%s) off the view differs from the oracle", i, shapeNames[q.shape])
			}
		}
	}
	tr.end(sp)
	t5 := time.Now()

	sp = tr.begin(op, "mapper.Save", root)
	t6 := time.Now()
	nosqlBytes, err := persist(pre.dir, cube)
	t7 := time.Now()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return fs, err
	}
	cs := cube.Stats()
	return feedStats{parse: t1.Sub(t0), build: t2.Sub(t1), encode: t3.Sub(t2), open: t4.Sub(t3),
		battery: t5.Sub(t4), save: t7.Sub(t6),
		served: t5.Sub(t0), total: t5.Sub(t0) + t7.Sub(t6),
		encoded: buf.Len(), nodes: cs.Nodes, cells: cs.Cells, nosqlBytes: nosqlBytes - pre.bytes}, nil
}

// preloaded is a NoSQL-DWARF store directory that set-up filled with the
// previous day's cube, and its footprint then.
type preloaded struct {
	dir   string
	bytes int64
}

// persist opens the NoSQL-DWARF store in dir, bulk-inserts the cube and
// closes the store, returning its footprint after the insert.
func persist(dir string, cube *dwarf.Cube) (int64, error) {
	st, err := mapper.OpenStore(mapper.KindNoSQLDwarf, dir, mapper.Options{}, mapper.EngineOptions{})
	if err != nil {
		return 0, err
	}
	_, err = st.Save(cube)
	var n int64
	if err == nil {
		n, err = st.StoredBytes()
	}
	return n, errors.Join(err, st.Close())
}

func runFeed(r *runCtx) error {
	_, recs, err := weekRecords(r.seed)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := smartcity.WriteBikesJSON(&b, recs); err != nil {
		return err
	}
	doc, err := r.mem.bytes(b.Len())
	if err != nil {
		return err
	}
	doc = append(doc, b.Bytes()...)
	week := weekTuples(recs)
	facts := len(week)
	cat, err := catalogue(r.seed, week)
	if err != nil {
		return err
	}
	oracle, err := dwarf.New(dims, week)
	if err != nil {
		return err
	}
	expect := make([]answer, len(cat))
	for i, q := range cat {
		if expect[i], err = q.run(oracle); err != nil {
			return err
		}
		if r.perturb {
			expect[i] = perturb(q, expect[i])
		}
	}
	r.logf("  input: Week preset, %d facts, feed document %d bytes, battery of %d queries", facts, len(doc), len(cat))

	// Set-up: the NoSQL-DWARF store a running deployment persists into
	// already holds earlier feeds, so each set-up creates a store holding
	// the previous day's cube (built from the seed as input, untimed).
	// Every op persists into a store of its own, so each op starts from
	// the same state.
	prev, err := previousDayCube(r.seed)
	if err != nil {
		return err
	}
	var setups []float64
	stores := make([]preloaded, feedMaxOps)
	for i := range stores {
		dir, err := os.MkdirTemp(r.root, "nosql-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		n, err := persist(dir, prev)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return err
		}
		stores[i] = preloaded{dir: dir, bytes: n}
	}

	qlat := make([]int64, 0, feedMaxOps*batteryPasses*len(cat))
	tr := &tracer{}
	var runs, traced []feedStats
	runtime.GC()
	var m0, m1 runtime.MemStats
	heap := startHeapSampler(0)
	start := time.Now()
	deadline := start.Add(time.Duration(r.seconds * float64(time.Second)))
	for op := int64(0); op < feedMaxOps && (op == 0 || time.Now().Before(deadline)); op++ {
		// Traced runs alternate untraced and traced ops so the difference
		// is the tracing overhead.
		on := r.trace && op%2 == 1
		runtime.ReadMemStats(&m0)
		n0 := len(qlat)
		fs, err := feedOp(r, doc, cat, expect, stores[op], &qlat, tr.on(on), op)
		runtime.ReadMemStats(&m1)
		heap.cut()
		if err != nil {
			heap.done()
			return err
		}
		fs.mallocs = float64(m1.Mallocs - m0.Mallocs)
		fs.query = summarize(qlat[n0:])
		r.attempted++
		if on {
			traced = append(traced, fs)
		} else {
			runs = append(runs, fs)
		}
		if r.trace && op == 0 {
			deadline = time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
		}
	}
	elapsed := time.Since(start).Seconds()
	peak := heap.done()
	all := append(append([]feedStats(nil), runs...), traced...)
	ops := len(all)
	stage := func(rs []feedStats, f func(feedStats) time.Duration) float64 {
		xs := make([]float64, len(rs))
		for i, x := range rs {
			xs[i] = f(x).Seconds()
		}
		return median(xs)
	}
	last := all[len(all)-1]
	if r.trace {
		if len(traced) == 0 {
			return fmt.Errorf("no traced op completed")
		}
		r.set("jsonstream.parse_s", stage(traced, func(f feedStats) time.Duration { return f.parse }))
		r.set("dwarf.build_s", stage(traced, func(f feedStats) time.Duration { return f.build }))
		r.set("dwarf.encode_s", stage(traced, func(f feedStats) time.Duration { return f.encode }))
		r.set("dwarf.open_s", stage(traced, func(f feedStats) time.Duration { return f.open }))
		r.set("mapper.save_s", stage(traced, func(f feedStats) time.Duration { return f.save }))
		r.set("dwarf.nodes", float64(last.nodes))
		r.set("dwarf.cells", float64(last.cells))
		r.set("nosql.bytes_on_disk", float64(last.nosqlBytes))
		r.set("dwarf.kernel_us", summarize(qlat).p50/1e3)
		tot := stage(traced, func(f feedStats) time.Duration { return f.total })
		r.set("trace.overhead_ms", (tot-stage(runs, func(f feedStats) time.Duration { return f.total }))*1e3)
		r.logf("  traced ops %d, untraced ops %d", len(traced), len(runs))
		ledgerFeed(r, tot)
		return tr.write(r)
	}
	tot := make([]int64, ops)
	for i, f := range all {
		tot[i] = int64(f.total)
	}
	r.set("setup_s", median(setups))
	r.logf("  setup_s %.4f s (median of %d set-ups: a NoSQL-DWARF store with the previous day's cube: %s)",
		median(setups), len(setups), fmtSecs(setups))
	r.timing("op", tot)
	r.set("ops_per_s", float64(ops)/elapsed)
	// The battery's latencies are summarized per op and the run reports
	// the median op: pooled, the op whose battery met a GC cycle of the
	// stages before it would own the tail.
	p50s, p99s := make([]float64, ops), make([]float64, ops)
	for i, f := range all {
		p50s[i], p99s[i] = f.query.p50/1e6, f.query.p99/1e6
	}
	r.set("query_p50_ms", median(p50s))
	r.set("query_p99_ms", median(p99s))
	r.logf("  %-22s p50 %.4f ms  p99 %.4f ms  (medians over %d ops of each op's percentiles: n=%d per op, %d beyond p99)",
		"query", median(p50s), median(p99s), ops, all[0].query.n, all[0].query.beyond)
	rates := make([]float64, len(all))
	for i, f := range all {
		rates[i] = float64(batteryPasses*len(cat)) / f.battery.Seconds()
	}
	r.set("queries_per_s", median(rates))
	allocs := make([]float64, ops)
	for i, f := range all {
		allocs[i] = f.mallocs
	}
	r.set("allocs_per_op", median(allocs))
	r.set("heap_peak_mb", peak)
	r.set("stored_bytes_per_fact", float64(last.encoded)/float64(facts))
	r.logf("  feed_to_served_s %.4f  persist_s %.4f  (medians over %d ops; parse %.4f build %.4f encode %.4f open %.6f battery %.4f)",
		stage(all, func(f feedStats) time.Duration { return f.served }),
		stage(all, func(f feedStats) time.Duration { return f.save }), ops,
		stage(all, func(f feedStats) time.Duration { return f.parse }),
		stage(all, func(f feedStats) time.Duration { return f.build }),
		stage(all, func(f feedStats) time.Duration { return f.encode }),
		stage(all, func(f feedStats) time.Duration { return f.open }),
		stage(all, func(f feedStats) time.Duration { return f.battery }))
	r.logf("  ops_per_s %.4f, queries_per_s %.1f, allocs_per_op %.0f, heap_peak_mb %.2f, stored_bytes_per_fact %.3f, nosql bytes %d",
		r.metrics["ops_per_s"], r.metrics["queries_per_s"], r.metrics["allocs_per_op"], r.metrics["heap_peak_mb"],
		r.metrics["stored_bytes_per_fact"], last.nosqlBytes)
	return nil
}

// previousDayCube builds the cube of the day before the Week preset (the
// Day preset's fact count) from its own seeded feed: what the NoSQL-DWARF
// store already holds when the week's feed document arrives.
func previousDayCube(seed int64) (*dwarf.Cube, error) {
	p, err := smartcity.PresetByName("Day")
	if err != nil {
		return nil, err
	}
	feed := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: seed ^ 0x2545f491,
		Start: time.Date(2015, time.May, 31, 0, 0, 0, 0, time.UTC)})
	return dwarf.New(dims, weekTuples(feed.Take(p.Tuples)))
}
