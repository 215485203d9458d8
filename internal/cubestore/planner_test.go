package cubestore

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dwarf"
	"repro/internal/query"
)

// Unit coverage for the planned query path's routing decisions: invalid
// arguments must never be routed through a rollup (so the kernel reports
// its usual error), a rollup whose cover is no longer a subset of the live
// segment set must give way to the segments themselves, and runIndexed
// must surface the lowest-index error regardless of which targets run
// concurrently.

func TestValidPivotArgs(t *testing.T) {
	all := make([]dwarf.Selector, 3)
	cases := []struct {
		name string
		dims []int
		sels []dwarf.Selector
		want bool
	}{
		{"ok single", []int{1}, all, true},
		{"ok multi", []int{0, 2}, all, true},
		{"ok all dims", []int{2, 1, 0}, all, true},
		{"empty dims", nil, all, false},
		{"dim out of range", []int{3}, all, false},
		{"negative dim", []int{-1}, all, false},
		{"duplicate dim", []int{1, 1}, all, false},
		{"too few selectors", []int{0}, all[:2], false},
		{"too many selectors", []int{0}, make([]dwarf.Selector, 4), false},
	}
	for _, c := range cases {
		if got := validPivotArgs(c.dims, c.sels, 3); got != c.want {
			t.Errorf("%s: validPivotArgs = %v, want %v", c.name, got, c.want)
		}
	}
}

// plannerState builds a storeState with the named segment files and one
// rollup over dims covering the listed files. Views stay nil: planTargets
// only routes, it never executes.
func plannerState(t *testing.T, storeDims []string, segFiles []string, rollupDims, covers []string) *storeState {
	t.Helper()
	st := &storeState{}
	for _, f := range segFiles {
		st.segs = append(st.segs, &segment{meta: segmentMeta{File: f, Tuples: 10}})
	}
	if rollupDims != nil {
		r, err := newRollupSeg(rollupMeta{
			File: "rollup-1.dwarf", Dims: rollupDims, Covers: covers, Tuples: 5,
		}, nil, nil, storeDims)
		if err != nil {
			t.Fatal(err)
		}
		st.rollups = append(st.rollups, r)
	}
	return st
}

func TestPlanTargetsRollupCoverGone(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	// The rollup summarizes seg-1 and seg-2, but seg-2 was compacted away:
	// routing through the rollup would double-count seg-1 against the
	// compaction output, so the planner must fan out over the live
	// segments instead.
	st := plannerState(t, dims, []string{"seg-1.dwarf", "seg-3.dwarf"},
		[]string{"Region", "Kind"}, []string{"seg-1.dwarf", "seg-2.dwarf"})
	sels := make([]dwarf.Selector, len(dims))
	targets, viaRollup := (&Store{dims: dims}).planTargets(st, []int{1}, sels, nil)
	if viaRollup {
		t.Fatal("partially covering rollup must not be planned in")
	}
	if len(targets) != 2 || targets[0].file != "seg-1.dwarf" || targets[1].file != "seg-3.dwarf" {
		t.Fatalf("fallback targets = %+v", targets)
	}
	for _, pt := range targets {
		if len(pt.dims) != 1 || pt.dims[0] != 1 || len(pt.sels) != len(dims) {
			t.Fatalf("fallback target must keep the original query: %+v", pt)
		}
	}
}

func TestPlanTargetsRollupRemap(t *testing.T) {
	dims := []string{"Day", "Region", "Kind"}
	st := plannerState(t, dims, []string{"seg-1.dwarf", "seg-3.dwarf"},
		[]string{"Region", "Kind"}, []string{"seg-1.dwarf"})
	sels := make([]dwarf.Selector, len(dims))
	sels[2] = dwarf.SelectKeys("bike")
	targets, viaRollup := (&Store{dims: dims}).planTargets(st, []int{2}, sels, nil)
	if !viaRollup {
		t.Fatal("fully covering rollup must be planned in")
	}
	// The rollup replaces seg-1 and its query is remapped to the rollup's
	// dimension order: store dim 2 (Kind) is rollup position 1, and only
	// the surviving dimensions' selectors ride along.
	if len(targets) != 2 || targets[0].file != "rollup-1.dwarf" || targets[1].file != "seg-3.dwarf" {
		t.Fatalf("rollup targets = %+v", targets)
	}
	rt := targets[0]
	if len(rt.dims) != 1 || rt.dims[0] != 1 {
		t.Fatalf("rollup grouped dims not remapped: %+v", rt.dims)
	}
	if len(rt.sels) != 2 || len(rt.sels[1].Keys) != 1 || rt.sels[1].Keys[0] != "bike" {
		t.Fatalf("rollup selectors not remapped: %+v", rt.sels)
	}
	// The uncovered segment still runs the original query.
	if got := targets[1]; got.dims[0] != 2 || len(got.sels) != 3 {
		t.Fatalf("uncovered segment query was remapped: %+v", got)
	}
}

func TestInvalidArgsSkipPlanner(t *testing.T) {
	// A store with a cache plans grouped queries through the cache and
	// rollups — but invalid arguments must skip both so the kernel
	// reports its usual error instead of the planner panicking or
	// answering a mis-shaped query.
	store, err := Open(t.TempDir(), Options{
		Dims:   []string{"A", "B"},
		NoSync: true, CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Append([]dwarf.Tuple{{Dims: []string{"x", "y"}, Measure: 1}}); err != nil {
		t.Fatal(err)
	}

	ref, err := dwarf.New([]string{"A", "B"}, []dwarf.Tuple{{Dims: []string{"x", "y"}, Measure: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(q query.Querier) error{
		"groupby dim out of range": func(q query.Querier) error {
			_, err := q.GroupBy(7, make([]dwarf.Selector, 2))
			return err
		},
		"groupby bad selector count": func(q query.Querier) error {
			_, err := q.GroupBy(0, make([]dwarf.Selector, 1))
			return err
		},
		"pivot duplicate dim": func(q query.Querier) error {
			_, err := q.Pivot([]int{0, 0}, make([]dwarf.Selector, 2))
			return err
		},
		"topk negative dim": func(q query.Querier) error {
			_, err := q.TopK(-1, make([]dwarf.Selector, 2), dwarf.TopKSpec{K: 1})
			return err
		},
	} {
		storeErr, cubeErr := run(store), run(ref)
		if storeErr == nil {
			t.Fatalf("%s: store accepted invalid query", name)
		}
		if cubeErr == nil || storeErr.Error() != cubeErr.Error() {
			t.Fatalf("%s: store error %q, kernel error %q", name, storeErr, cubeErr)
		}
	}
}

func TestRunIndexedFirstError(t *testing.T) {
	errAt := func(fail ...int) func(int) error {
		bad := make(map[int]bool, len(fail))
		for _, i := range fail {
			bad[i] = true
		}
		return func(i int) error {
			if bad[i] {
				return fmt.Errorf("target %d failed", i)
			}
			return nil
		}
	}

	// Concurrent path (>2 targets): multiple failures surface as the
	// lowest-index one, deterministically, however the goroutines race.
	for round := 0; round < 20; round++ {
		err := runIndexed(6, errAt(4, 2, 5))
		if err == nil || err.Error() != "target 2 failed" {
			t.Fatalf("round %d: got %v, want lowest-index error", round, err)
		}
	}

	// All targets still run to completion despite an early failure — the
	// concurrent path has no cancellation, so every index is visited.
	var visited atomic.Int64
	err := runIndexed(5, func(i int) error {
		visited.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
	if n := visited.Load(); runtime.GOMAXPROCS(0) > 1 && n != 5 {
		t.Fatalf("concurrent path visited %d of 5 targets", n)
	}

	// Serial path (<=2 targets): a failure stops the walk immediately.
	var serial atomic.Int64
	err = runIndexed(2, func(i int) error {
		serial.Add(1)
		return fmt.Errorf("target %d failed", i)
	})
	if err == nil || err.Error() != "target 0 failed" || serial.Load() != 1 {
		t.Fatalf("serial path: err=%v after %d calls", err, serial.Load())
	}

	if err := runIndexed(6, errAt()); err != nil {
		t.Fatalf("clean run: %v", err)
	}
}
