package cubestore

import (
	"runtime"
	"sync"

	"repro/internal/dwarf"
	"repro/internal/qcache"
	"repro/internal/query"
)

// The store implements every shape of the shared query surface
// (query.Querier) through one planned path:
//
//  1. plan snapshots the store state and lists the query's targets:
//     every sealed segment — with a covering rollup segment in place of
//     the segments it summarizes, for the grouped shapes — minus the
//     targets whose zone maps prove no selected tuple lives there, then
//     every frozen memtable oldest-first, then the live memtable. The
//     snapshot is immutable, so the query runs lock-free even while
//     commits, seals and compactions swap the store state underneath.
//  2. The unified kernel runs against every target — segment views and
//     memtable cubes are both dwarf.Sources answering through the same
//     kernel code — concurrently when there are several (runIndexed).
//  3. The partial results merge in that deterministic target order:
//     aggregates with dwarf.MergeAggregates, keyed shapes per key
//     (dwarf.MergeGroupMaps / dwarf.MergePivotGroups). TopK ranks only
//     after every partial group is in, so a key that is small in every
//     segment but large in total still ranks (docs/QUERY.md).
//
// Skipping a pruned target never changes the merged answer: an absent key
// contributes the zero Aggregate, and merging zero is identity. Without a
// result cache or rollup segments the plan is just that fan-out. The
// grouped shapes (GroupBy/Pivot/TopK) additionally use whatever is
// configured:
//
//   - Full results are cached stamped with the store generation read
//     BEFORE the snapshot. A write landing in between leaves the result
//     stamped older than the data it includes — at worst an unnecessary
//     recompute on the next lookup, never a stale hit: an acknowledged
//     append always bumps the generation after folding into the memtable,
//     so a matching stamp proves the cached answer reflects every
//     acknowledged write.
//   - Per-target partials are cached keyed by backing file + query key.
//     Segment and rollup files are immutable and their names never reused,
//     so these entries cannot go stale; memtable partials have no backing
//     file and are recomputed on every miss.
//   - A covering rollup segment replaces the segments it summarizes, with
//     the query remapped to the rollup's dimension subset.
//
// Point and Range use neither: they plan over the segments and memtables
// only, with no rollup routing and no cache lookups, keeping their
// allocation count at the plain fan-out's (TestStoreQueryAllocs).
//
// Cached values are shared across callers and with the cache itself, so
// results returned by the grouped shapes are read-only — callers that
// mutate a GroupBy map must copy it first. The contract is audited
// end-to-end: dwarf.TopKFromGroups only reads the map it ranks (TopK hands
// it the cache-shared GroupBy map directly), serve's paging only subslices
// cached []PivotGroup/[]GroupEntry results, and query.DrillDown — the one
// name-level API whose callers naturally mutate the result — copies before
// returning. TestPlannedPathSharedResultsRace in the serve package pins
// the whole surface under the race detector.

// plannedTarget is one fan-out input: a segment or rollup view, or a
// memtable cube, plus the (possibly dimension-remapped) query to run
// against it. file names the immutable backing file that keys a segment's
// or rollup's cached partials; memtables have none.
type plannedTarget struct {
	q    query.Querier
	file string
	dims []int // grouped dims, remapped for a rollup (dims[0] for GroupBy/TopK)
	sels []dwarf.Selector
}

// validPivotArgs mirrors the kernel's QueryPivot argument checks; invalid
// queries are never routed through a rollup, so the kernel reports its
// usual error.
func validPivotArgs(dims []int, sels []dwarf.Selector, ndims int) bool {
	if len(sels) != ndims || len(dims) == 0 {
		return false
	}
	seen := make([]bool, ndims)
	for _, d := range dims {
		if d < 0 || d >= ndims || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// planTargets picks the immutable targets of a query grouping by the store
// dimensions in grouped (nil for Point and Range) under sels: a covering
// rollup (query remapped to its subset) replaces the segments it
// summarizes, everything else fans out as usual, and admit (nil admits
// everything, as does Options.NoPrune) drops any segment whose zone maps
// prove it holds no selected tuple; a rollup is pruned by its own zone maps
// over the remapped selectors. Pruning only shrinks the fan-out; the
// merged answer and the cache keys are unchanged either way. The flag
// reports whether a rollup was planned in.
func (s *Store) planTargets(st *storeState, grouped []int, sels []dwarf.Selector,
	admit func([]dwarf.ZoneMap) bool) ([]plannedTarget, bool) {

	if s.opts.NoPrune {
		admit = nil
	}
	var r *rollupSeg
	if grouped != nil && validPivotArgs(grouped, sels, len(s.dims)) {
		r = st.chooseRollup(grouped, sels)
	}
	// Room for the memtable targets plan appends; a rollup always replaces
	// at least one segment.
	out := make([]plannedTarget, 0, len(st.segs)+len(st.frozen)+1)
	pruned := int64(0)
	var covered map[string]bool
	if r != nil {
		rdims := make([]int, len(grouped))
		for i, d := range grouped {
			rdims[i] = r.pos[d]
		}
		rsels := make([]dwarf.Selector, len(r.dimIdx))
		for j, d := range r.dimIdx {
			rsels[j] = sels[d]
		}
		covered = make(map[string]bool, len(r.meta.Covers))
		for _, f := range r.meta.Covers {
			covered[f] = true
		}
		// Rejected by its own zone maps means every covered segment's
		// selected slice is empty, so dropping the whole target is sound.
		if admit == nil || dwarf.ZonesAdmit(r.zones, rsels) {
			out = append(out, plannedTarget{q: r.view, file: r.meta.File, dims: rdims, sels: rsels})
		} else {
			pruned++
		}
	}
	for _, seg := range st.segs {
		if covered[seg.meta.File] {
			continue
		}
		if admit != nil && !admit(seg.zones) {
			pruned++
			continue
		}
		out = append(out, plannedTarget{q: seg.view, file: seg.meta.File, dims: grouped, sels: sels})
	}
	if pruned > 0 {
		s.segsPruned.Add(pruned)
	}
	s.segsScanned.Add(int64(len(out)))
	return out, r != nil
}

// plan snapshots the store and lists one query's targets in merge order:
// planTargets' segments (or rollup), then every frozen memtable oldest
// first, then the live memtable. Memtables are never pruned (they carry no
// zone maps) and count in neither scan counter.
func (s *Store) plan(grouped []int, sels []dwarf.Selector, admit func([]dwarf.ZoneMap) bool) ([]plannedTarget, error) {
	st := s.state.Load()
	live, err := st.mem.Cube()
	if err != nil {
		return nil, err
	}
	targets, viaRollup := s.planTargets(st, grouped, sels, admit)
	if viaRollup {
		s.rollupHits.Add(1)
	}
	for _, fz := range st.frozen {
		c, err := fz.mem.Cube()
		if err != nil {
			return nil, err
		}
		targets = append(targets, plannedTarget{q: c, dims: grouped, sels: sels})
	}
	return append(targets, plannedTarget{q: live, dims: grouped, sels: sels}), nil
}

// runIndexed runs fn for every index in [0,n), concurrently when there are
// more than two and more than one P, and returns the lowest-index error.
func runIndexed(n int, fn func(int) error) error {
	if n <= 2 || runtime.GOMAXPROCS(0) == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeAggregates folds per-target aggregates in target order.
func mergeAggregates(parts []dwarf.Aggregate) dwarf.Aggregate {
	var agg dwarf.Aggregate
	for _, p := range parts {
		agg = dwarf.MergeAggregates(agg, p)
	}
	return agg
}

// Point answers a point/ALL query across every sealed segment and the
// memtables, reflecting every acknowledged tuple. Segments whose zone maps
// exclude any bound key are pruned from the fan-out.
func (s *Store) Point(keys ...string) (dwarf.Aggregate, error) {
	targets, err := s.plan(nil, nil, func(zones []dwarf.ZoneMap) bool { return dwarf.ZonesAdmitPoint(zones, keys) })
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	parts := make([]dwarf.Aggregate, len(targets))
	err = runIndexed(len(targets), func(i int) (err error) {
		parts[i], err = targets[i].q.Point(keys...)
		return err
	})
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	return mergeAggregates(parts), nil
}

// Range aggregates the sub-cube addressed by one selector per dimension
// across segments and the memtables, pruning segments whose zone maps
// prove the selection empty there.
func (s *Store) Range(sels []dwarf.Selector) (dwarf.Aggregate, error) {
	targets, err := s.plan(nil, sels, admitRange(sels))
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	parts := make([]dwarf.Aggregate, len(targets))
	err = runIndexed(len(targets), func(i int) (err error) {
		parts[i], err = targets[i].q.Range(sels)
		return err
	})
	if err != nil {
		return dwarf.Aggregate{}, err
	}
	return mergeAggregates(parts), nil
}

// admitRange closes dwarf.ZonesAdmit over one selector list.
func admitRange(sels []dwarf.Selector) func([]dwarf.ZoneMap) bool {
	return func(zones []dwarf.ZoneMap) bool { return dwarf.ZonesAdmit(zones, sels) }
}

// GroupBy groups the dimension at index dim under the restriction of sels,
// merging per-key partial aggregates across the planned targets.
func (s *Store) GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	return s.groupsAt(s.gen.Load(), dim, sels)
}

// groupsAt returns the merged GroupBy map for the store state stamped gen
// (which the caller read before any snapshot). TopK reuses it, so a TopK
// miss also warms the GroupBy entry and vice versa.
func (s *Store) groupsAt(gen uint64, dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error) {
	var key string
	if s.cache != nil {
		key = qcache.KeyGroupBy(dim, sels)
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.(map[string]dwarf.Aggregate), nil
		}
	}
	parts, err := partials(s, key, []int{dim}, sels, qcache.SizeOfGroupMap,
		func(t *plannedTarget) (map[string]dwarf.Aggregate, error) { return t.q.GroupBy(t.dims[0], t.sels) })
	if err != nil {
		return nil, err
	}
	groups := dwarf.MergeGroupMaps(make(map[string]dwarf.Aggregate), parts...)
	if s.cache != nil {
		s.cache.PutResult(key, groups, gen, qcache.SizeOfGroupMap(groups))
	}
	return groups, nil
}

// Pivot is the multi-dimension GroupBy across the planned targets:
// per-target sorted rows are merged per key tuple, so the result is
// exactly a single cube's Pivot over all acknowledged tuples.
func (s *Store) Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error) {
	gen := s.gen.Load()
	var key string
	if s.cache != nil {
		key = qcache.KeyPivot(dims, sels)
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.([]dwarf.PivotGroup), nil
		}
	}
	parts, err := partials(s, key, dims, sels, qcache.SizeOfPivotRows,
		func(t *plannedTarget) ([]dwarf.PivotGroup, error) { return t.q.Pivot(t.dims, t.sels) })
	if err != nil {
		return nil, err
	}
	rows := dwarf.MergePivotGroups(parts...)
	if s.cache != nil {
		s.cache.PutResult(key, rows, gen, qcache.SizeOfPivotRows(rows))
	}
	return rows, nil
}

// TopK ranks the groups of the dimension at index dim across the planned
// targets. Partial group maps are merged before the threshold and K cut —
// a per-target cut would drop keys whose weight is spread across segments
// — so the ranking equals a single cube's over all acknowledged tuples.
func (s *Store) TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	gen := s.gen.Load()
	var key string
	if s.cache != nil {
		key = qcache.KeyTopK(dim, sels, spec)
		if v, ok := s.cache.GetResult(key, gen); ok {
			return v.([]dwarf.GroupEntry), nil
		}
	}
	groups, err := s.groupsAt(gen, dim, sels)
	if err != nil {
		return nil, err
	}
	entries := dwarf.TopKFromGroups(groups, spec)
	if s.cache != nil {
		s.cache.PutResult(key, entries, gen, qcache.SizeOfEntries(entries))
	}
	return entries, nil
}

// partials plans a grouped query and returns every target's partial in
// target order. With a cache (qkey is then the query's cache key) an
// immutable target's partial comes from the cache when present, and one
// computed by run is stored there under the target's backing file; the
// rest are computed by run, concurrently when there are several.
func partials[T any](s *Store, qkey string, grouped []int, sels []dwarf.Selector,
	size func(T) int64, run func(*plannedTarget) (T, error)) ([]T, error) {

	targets, err := s.plan(grouped, sels, admitRange(sels))
	if err != nil {
		return nil, err
	}
	c := s.cache
	parts := make([]T, len(targets))
	var missing []int // the targets left to compute; nil means all
	if c != nil {
		missing = make([]int, 0, len(targets))
		for i := range targets {
			if targets[i].file != "" {
				if v, ok := c.GetPartial(targets[i].file + "|" + qkey); ok {
					parts[i] = v.(T)
					continue
				}
			}
			missing = append(missing, i)
		}
	}
	n := len(targets)
	if missing != nil {
		n = len(missing)
	}
	err = runIndexed(n, func(k int) error {
		i := k
		if missing != nil {
			i = missing[k]
		}
		t := &targets[i]
		p, err := run(t)
		if err != nil {
			return err
		}
		if c != nil && t.file != "" {
			c.PutPartial(t.file+"|"+qkey, p, size(p))
		}
		parts[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return parts, nil
}

// The store serves the full shared query surface.
var _ query.Querier = (*Store)(nil)
