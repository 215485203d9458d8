// Package query is the unified query surface over every cube
// representation the system serves: the in-memory node graph (*dwarf.Cube),
// the zero-copy encoded view (*dwarf.CubeView) and the live store
// (*cubestore.Store). All three implement Querier — the single interface
// internal/serve programs against — and all three answer through the same
// kernel (internal/dwarf/kernel.go): the two single-source types call it
// directly through their dwarf.Source cursors, and the store runs it per
// target and merges the partial results (docs/QUERY.md spells out the
// partial-merge semantics).
//
// On top of Querier this package provides the dimension-NAME based
// operations of the smart-city rollup/drill-down story (the paper's §6),
// which previously required rebuilding whole in-memory cubes and now run
// directly on views and the live store: RollUp collapses a cube to a subset
// of named dimensions as sorted rows, and DrillDown enumerates the members
// of one named dimension below a fixed path.
package query

import (
	"errors"
	"fmt"

	"repro/internal/dwarf"
)

// Source is the cursor interface the kernel walks; see dwarf.Source.
type Source = dwarf.Source

// Querier is the full query surface shared by *dwarf.Cube, *dwarf.CubeView
// and *cubestore.Store. Every shape answers identically across the three
// over the same fact multiset (the differential suites pin this).
type Querier interface {
	// Dims returns the dimension names in order.
	Dims() []string
	// NumDims returns the number of dimensions.
	NumDims() int
	// Point answers a point/ALL-wildcard query, one key per dimension.
	Point(keys ...string) (dwarf.Aggregate, error)
	// Range aggregates the sub-cube addressed by one selector per dimension.
	Range(sels []dwarf.Selector) (dwarf.Aggregate, error)
	// GroupBy groups the dimension at index dim under the restriction of sels.
	GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error)
	// Pivot is the multi-dimension GroupBy, returning sorted rows.
	Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error)
	// TopK ranks the groups of one dimension by a metric, best first.
	TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error)
}

// Both single-source cube representations satisfy the full surface; the
// store's assertion lives in cubestore to avoid an import cycle.
var (
	_ Querier = (*dwarf.Cube)(nil)
	_ Querier = (*dwarf.CubeView)(nil)
)

// ErrUnknownDim reports a dimension name the target does not have.
var ErrUnknownDim = errors.New("query: unknown dimension")

// ErrUnavailable reports that a distributed Querier could not reach every
// part it answers from (a cluster node that failed or timed out), so it
// refused to answer rather than return a silently short result. Errors
// wrapping it name the failed parts; HTTP servers map it to 502.
var ErrUnavailable = errors.New("query: backend parts unavailable")

// Partial is a Querier that answers over the parts of a distributed
// backend that are reachable, instead of failing when some are not (a
// cluster's allow_partial mode). Failed names the parts missing from the
// answers given so far, sorted; empty means every answer was complete.
// A Partial serves one request: it is not safe for concurrent use.
type Partial interface {
	Querier
	Failed() []string
}

// DimIndex resolves a dimension name to its index in q's dimension order.
func DimIndex(q Querier, name string) (int, error) {
	for i, d := range q.Dims() {
		if d == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s", ErrUnknownDim, name)
}

// RollUp collapses q to a coarser grain: only the named dimensions survive
// (in q's dimension order); all others are aggregated away through their
// ALL cells. The result is the coarse cube's content — one sorted row per
// surviving key combination, counts and min/max preserved — computed by a
// single kernel walk, with no cube rebuild and no decoding: on a CubeView
// it runs zero-copy over the encoded bytes, and on the live store it fans
// out and merges partials.
func RollUp(q Querier, keep ...string) ([]string, []dwarf.PivotGroup, error) {
	all := q.Dims()
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	idx := make([]int, 0, len(keep))
	dims := make([]string, 0, len(keep))
	for i, d := range all {
		if keepSet[d] {
			idx = append(idx, i)
			dims = append(dims, d)
			delete(keepSet, d)
		}
	}
	for k := range keepSet {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownDim, k)
	}
	if len(idx) == 0 {
		return nil, nil, fmt.Errorf("%w: nothing to keep", ErrUnknownDim)
	}
	rows, err := q.Pivot(idx, make([]dwarf.Selector, len(all)))
	if err != nil {
		return nil, nil, err
	}
	return dims, rows, nil
}

// DrillDown enumerates the members one level below a fixed path: fixed maps
// dimension name → key (missing dimensions are wildcards), dim names the
// dimension whose members are enumerated. Each member key maps to its
// aggregate under the fixed path — the DRILL DOWN of the paper's §6,
// served by one kernel group-by on any Querier.
//
// The returned map is the caller's to keep and mutate. When q is a live
// store with a result cache, GroupBy hands back the cache-shared map
// (read-only by contract), so DrillDown copies it before returning —
// drill-down callers routinely prune and annotate the member map, and a
// shared-map mutation here would silently corrupt every later cache hit.
func DrillDown(q Querier, fixed map[string]string, dim string) (map[string]dwarf.Aggregate, error) {
	dims := q.Dims()
	dimIdx := -1
	sels := make([]dwarf.Selector, len(dims))
	for i, d := range dims {
		if d == dim {
			dimIdx = i
		}
		if k, ok := fixed[d]; ok {
			sels[i] = dwarf.SelectKeys(k)
		}
	}
	if dimIdx < 0 {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDim, dim)
	}
	for d := range fixed {
		found := false
		for _, have := range dims {
			if have == d {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %s", ErrUnknownDim, d)
		}
	}
	groups, err := q.GroupBy(dimIdx, sels)
	if err != nil {
		return nil, err
	}
	out := make(map[string]dwarf.Aggregate, len(groups))
	for k, a := range groups {
		out[k] = a
	}
	return out, nil
}

// TopKByName is TopK with the grouped dimension resolved by name. A nil
// selector list means no restriction (ALL on every dimension).
func TopKByName(q Querier, dim string, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error) {
	idx, err := DimIndex(q, dim)
	if err != nil {
		return nil, err
	}
	if sels == nil {
		sels = make([]dwarf.Selector, q.NumDims())
	}
	return q.TopK(idx, sels, spec)
}
