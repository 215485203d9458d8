package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dwarf"
	"repro/internal/smartcity"
)

// Dimension indices of smartcity.BikeDims.
const (
	dYear = iota
	dMonth
	dDay
	dHour
	dQuarter
	dArea
	dStation
	dStatus
)

var dims = smartcity.BikeDims

// The dashboard catalogue reads the Week's history: June, days 01–08. The
// ingested ticks start on day 09 and run on into July, so history answers
// never change while the feed streams in and every response after the
// first verified one is compared byte for byte.
const (
	histMonth  = "06"
	histMaxDay = "08"
	zipfS      = 1.1
)

func weekTuples(recs []smartcity.BikeRecord) []dwarf.Tuple {
	out := make([]dwarf.Tuple, len(recs))
	for i, r := range recs {
		out[i] = r.Tuple()
	}
	return out
}

// weekRecords renders the Week preset's fact count from the seeded feed.
func weekRecords(seed int64) (*smartcity.BikeFeed, []smartcity.BikeRecord, error) {
	p, err := smartcity.PresetByName("Week")
	if err != nil {
		return nil, nil, err
	}
	feed := smartcity.NewBikeFeed(smartcity.BikeConfig{Seed: seed})
	return feed, feed.Take(p.Tuples), nil
}

// forTicks replays the feed polls that follow the Week: tick k is every
// record of one poll timestamp, and fresh is the index of the tuple read
// back after its ack. The same seed always yields the same ticks, so the
// benchmark regenerates them after the measured phase instead of holding
// them in memory during it.
func forTicks(seed int64, n int, fn func(k int, tick []dwarf.Tuple, fresh int)) error {
	feed, _, err := weekRecords(seed)
	if err != nil {
		return err
	}
	pick := rand.New(rand.NewSource(seed ^ 0x7f4a7c15))
	next := feed.Next()
	for k := 0; k < n; k++ {
		var tick []dwarf.Tuple
		at := next.Timestamp
		for next.Timestamp.Equal(at) {
			tick = append(tick, next.Tuple())
			next = feed.Next()
		}
		fn(k, tick, pick.Intn(len(tick)))
	}
	return nil
}

// catalogue draws the dashboard's distinct queries from the Week's history
// plus a fixed set of all-time Area/Status queries, ordered by popularity
// rank for the Zipf stream.
func catalogue(seed int64, week []dwarf.Tuple) ([]*query, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	var hist []dwarf.Tuple
	daySet, areaSet, statusSet := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, t := range week {
		if t.Dims[dMonth] == histMonth && t.Dims[dDay] <= histMaxDay {
			hist = append(hist, t)
			daySet[t.Dims[dDay]] = true
		}
		areaSet[t.Dims[dArea]] = true
		statusSet[t.Dims[dStatus]] = true
	}
	if len(hist) == 0 {
		return nil, fmt.Errorf("catalogue: no history facts")
	}
	days, areas, statuses := sortedKeys(daySet), sortedKeys(areaSet), sortedKeys(statusSet)

	// Every seed gets the same number of queries of each kind at the same
	// popularity ranks; the seed picks the facts, days and filters, so the
	// shape mix behind every latency figure is the same for all seeds.
	kinds := []int{400, 250, 100, 100, 75, 75} // full point, partial point, range, groupby, pivot, topk
	seen := map[string]bool{}
	pools := make([][]*query, len(kinds))
	add := func(kind int, q *query) {
		_, path, body := q.wire(dims, true)
		if k := path + string(body); !seen[k] {
			seen[k] = true
			pools[kind] = append(pools[kind], q)
		}
	}
	allSels := func() []sel { return make([]sel, len(dims)) }
	window := func() []sel {
		s := allSels()
		s[dMonth] = sel{keys: []string{histMonth}}
		i := rng.Intn(len(days))
		j := i + rng.Intn(3)
		if j >= len(days) {
			j = len(days) - 1
		}
		s[dDay] = sel{lo: days[i], hi: days[j], ranged: true}
		return s
	}
	someAreas := func() []string {
		n := 1 + rng.Intn(3)
		idx := rng.Perm(len(areas))[:n]
		sort.Ints(idx)
		ks := make([]string, n)
		for i, x := range idx {
			ks[i] = areas[x]
		}
		return ks
	}
	metrics := []dwarf.Metric{dwarf.BySum, dwarf.ByCount, dwarf.ByMax}
	for kind, n := range kinds {
		for attempts := 0; len(pools[kind]) < n; attempts++ {
			if attempts > 100*n {
				return nil, fmt.Errorf("catalogue: only %d distinct queries of kind %d", len(pools[kind]), kind)
			}
			fact := hist[rng.Intn(len(hist))]
			switch kind {
			case 0: // fully bound point
				add(kind, &query{shape: shPoint, keys: append([]string(nil), fact.Dims...)})
			case 1: // partly-ALL point; Year, Month and Day stay bound
				keys := append([]string(nil), fact.Dims...)
				for _, d := range [][]int{{dStatus}, {dStation, dStatus}, {dQuarter, dStation, dStatus},
					{dHour, dQuarter, dStation, dStatus}, {dArea, dStation}}[rng.Intn(5)] {
					keys[d] = dwarf.All
				}
				add(kind, &query{shape: shPoint, keys: keys})
			case 2: // 1-day Range window on Day
				s := allSels()
				s[dMonth] = sel{keys: []string{histMonth}}
				s[dDay] = sel{lo: fact.Dims[dDay], hi: fact.Dims[dDay], ranged: true}
				if rng.Intn(2) == 0 {
					s[dArea] = sel{keys: someAreas()}
				}
				if rng.Intn(3) == 0 {
					s[dStatus] = sel{keys: []string{statuses[rng.Intn(len(statuses))]}}
				}
				add(kind, &query{shape: shRange, sels: s})
			case 3:
				s := window()
				if rng.Intn(2) == 0 {
					s[dArea] = sel{keys: someAreas()}
				}
				add(kind, &query{shape: shGroupBy, dim: []int{dStation, dHour}[rng.Intn(2)], sels: s})
			case 4:
				s := window()
				if rng.Intn(3) == 0 {
					s[dStatus] = sel{keys: []string{statuses[rng.Intn(len(statuses))]}}
				}
				add(kind, &query{shape: shPivot, dims: []int{dArea, dStatus}, sels: s})
			case 5:
				add(kind, &query{shape: shTopK, dim: dStation, sels: window(),
					spec: dwarf.TopKSpec{K: 5 + 5*rng.Intn(2), By: metrics[rng.Intn(len(metrics))]}})
			}
		}
	}
	var slots []int
	for kind, n := range kinds {
		for i := 0; i < n; i++ {
			slots = append(slots, kind)
		}
	}
	rand.New(rand.NewSource(42)).Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var out []*query
	for _, kind := range slots {
		out = append(out, pools[kind][0])
		pools[kind] = pools[kind][1:]
	}

	// All-time tiles: selectors on Area and Status only, so a rollup over
	// (Area, Status) can answer the grouped ones. They sit at fixed popular
	// ranks, as headline tiles do.
	areaSel := func(ks ...string) []sel { s := allSels(); s[dArea] = sel{keys: ks}; return s }
	statusSel := func(ks ...string) []sel { s := allSels(); s[dStatus] = sel{keys: ks}; return s }
	tiles := []*query{
		{shape: shPivot, dims: []int{dArea, dStatus}, sels: allSels()},
		{shape: shPivot, dims: []int{dArea, dStatus}, sels: statusSel(statuses[0])},
		{shape: shGroupBy, dim: dArea, sels: allSels()},
		{shape: shGroupBy, dim: dArea, sels: statusSel(statuses[len(statuses)-1])},
		{shape: shGroupBy, dim: dStatus, sels: allSels()},
		{shape: shGroupBy, dim: dStatus, sels: areaSel(areas[:3]...)},
		{shape: shTopK, dim: dArea, sels: allSels(), spec: dwarf.TopKSpec{K: 5, By: dwarf.BySum}},
		{shape: shTopK, dim: dArea, sels: statusSel(statuses[0]), spec: dwarf.TopKSpec{K: 3, By: dwarf.ByCount}},
		{shape: shTopK, dim: dStatus, sels: allSels(), spec: dwarf.TopKSpec{K: 3, By: dwarf.ByMax}},
		{shape: shRange, sels: statusSel(statuses[1:]...)},
	}
	for i, q := range tiles {
		q.allTime = true
		at := []int{2, 5, 9, 14, 20, 27, 35, 50, 70, 95}[i]
		out = append(out[:at], append([]*query{q}, out[at:]...)...)
	}
	for _, q := range out {
		if q.shape != shPoint && len(q.sels) != len(dims) {
			return nil, fmt.Errorf("catalogue: query with %d selectors", len(q.sels))
		}
		m, p, b := q.wire(dims, true)
		q.live = rawRequest(m, p, b)
		m, p, b = q.wire(dims, false)
		q.gw = rawRequest(m, p, b)
	}
	return out, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// zipfStream yields catalogue ranks for one connection; the generator
// allocates nothing per draw.
func zipfStream(seed int64, conn, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed*31+int64(conn)+1)), zipfS, 1, uint64(n-1))
}

// tickBody renders one tick as an /ingest request body.
func tickBody(b []byte, tick []dwarf.Tuple) []byte {
	b = append(b, `{"tuples":[`...)
	for i, t := range tick {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"dims":[`...)
		for j, d := range t.Dims {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, d)
		}
		b = append(b, `],"measure":`...)
		b = strconv.AppendFloat(b, t.Measure, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
