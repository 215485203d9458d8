package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"reflect"
	"strconv"

	"repro/internal/dwarf"
)

// Query shapes, in the order the ledger reports them.
const (
	shPoint = iota
	shRange
	shGroupBy
	shPivot
	shTopK
	nShapes
)

var shapeNames = [nShapes]string{"point", "range", "groupby", "pivot", "topk"}

// sel is one dimension's selector in a form that renders to both the dwarf
// API and the HTTP wire format.
type sel struct {
	keys   []string
	lo, hi string
	ranged bool
}

func (s sel) dwarf() dwarf.Selector {
	switch {
	case s.ranged:
		return dwarf.SelectRange(s.lo, s.hi)
	case len(s.keys) > 0:
		return dwarf.SelectKeys(s.keys...)
	}
	return dwarf.SelectAll()
}

func (s sel) appendJSON(b []byte) []byte {
	switch {
	case s.ranged:
		b = append(b, `{"lo":`...)
		b = strconv.AppendQuote(b, s.lo)
		b = append(b, `,"hi":`...)
		b = strconv.AppendQuote(b, s.hi)
		return append(b, '}')
	case len(s.keys) > 0:
		b = append(b, `{"keys":[`...)
		for i, k := range s.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, k)
		}
		return append(b, "]}"...)
	}
	return append(b, "{}"...)
}

// query is one distinct request of the dashboard catalogue.
type query struct {
	shape int
	keys  []string // point: one key per dimension, dwarf.All for ALL
	sels  []sel    // other shapes: one selector per dimension
	dim   int      // groupby, topk
	dims  []int    // pivot
	spec  dwarf.TopKSpec
	// allTime marks a query that restricts only Area and Status, so its
	// answer grows with every ingested tick (and a rollup can serve it).
	allTime bool
	// live and gw are the preformatted raw HTTP requests against dwarfd's
	// live cube and against the cluster gateway.
	live, gw []byte
}

type querier interface {
	Point(keys ...string) (dwarf.Aggregate, error)
	Range(sels []dwarf.Selector) (dwarf.Aggregate, error)
	GroupBy(dim int, sels []dwarf.Selector) (map[string]dwarf.Aggregate, error)
	Pivot(dims []int, sels []dwarf.Selector) ([]dwarf.PivotGroup, error)
	TopK(dim int, sels []dwarf.Selector, spec dwarf.TopKSpec) ([]dwarf.GroupEntry, error)
}

func (q *query) dwarfSels() []dwarf.Selector {
	out := make([]dwarf.Selector, len(q.sels))
	for i, s := range q.sels {
		out[i] = s.dwarf()
	}
	return out
}

// answer is the canonical form of one query result, filled per shape.
type answer struct {
	agg    dwarf.Aggregate
	groups map[string]dwarf.Aggregate
	rows   []dwarf.PivotGroup
	top    []dwarf.GroupEntry
}

// run answers q on any query surface: the batch oracle cube, a segment
// view, the live store or the cluster coordinator.
func (q *query) run(src querier) (answer, error) {
	var a answer
	var err error
	switch q.shape {
	case shPoint:
		a.agg, err = src.Point(q.keys...)
	case shRange:
		a.agg, err = src.Range(q.dwarfSels())
	case shGroupBy:
		a.groups, err = src.GroupBy(q.dim, q.dwarfSels())
	case shPivot:
		a.rows, err = src.Pivot(q.dims, q.dwarfSels())
	case shTopK:
		a.top, err = src.TopK(q.dim, q.dwarfSels(), q.spec)
	}
	return a.norm(), err
}

func (a answer) norm() answer {
	if len(a.groups) == 0 {
		a.groups = nil
	}
	if len(a.rows) == 0 {
		a.rows = nil
	}
	if len(a.top) == 0 {
		a.top = nil
	}
	return a
}

func (a answer) equal(b answer) bool {
	return reflect.DeepEqual(a.norm(), b.norm())
}

type aggJSON struct {
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func (j aggJSON) agg() dwarf.Aggregate {
	return dwarf.Aggregate{Sum: j.Sum, Count: j.Count, Min: j.Min, Max: j.Max}
}

// decode parses a 200 response body of q's shape (dwarfd and gateway
// envelopes share the fields read here) into the canonical form.
func (q *query) decode(body []byte) (answer, error) {
	var env struct {
		Aggregate *aggJSON        `json:"aggregate"`
		Groups    json.RawMessage `json:"groups"`
		Entries   []struct {
			Key       string  `json:"key"`
			Aggregate aggJSON `json:"aggregate"`
		} `json:"entries"`
		Truncated bool `json:"truncated"`
	}
	var a answer
	if err := json.Unmarshal(body, &env); err != nil {
		return a, err
	}
	if env.Truncated {
		return a, fmt.Errorf("truncated response")
	}
	switch q.shape {
	case shPoint, shRange:
		if env.Aggregate == nil {
			return a, fmt.Errorf("no aggregate in response")
		}
		a.agg = env.Aggregate.agg()
	case shGroupBy:
		var m map[string]aggJSON
		if err := json.Unmarshal(env.Groups, &m); err != nil {
			return a, err
		}
		a.groups = make(map[string]dwarf.Aggregate, len(m))
		for k, v := range m {
			a.groups[k] = v.agg()
		}
	case shPivot:
		var rows []struct {
			Keys      []string `json:"keys"`
			Aggregate aggJSON  `json:"aggregate"`
		}
		if err := json.Unmarshal(env.Groups, &rows); err != nil {
			return a, err
		}
		for _, r := range rows {
			a.rows = append(a.rows, dwarf.PivotGroup{Keys: r.Keys, Agg: r.Aggregate.agg()})
		}
	case shTopK:
		for _, e := range env.Entries {
			a.top = append(a.top, dwarf.GroupEntry{Key: e.Key, Agg: e.Aggregate.agg()})
		}
	}
	return a.norm(), nil
}

// wire renders q's request: path plus JSON body (nil for the point GET).
// withCube adds dwarfd's "cube" field; the gateway rejects unknown fields.
func (q *query) wire(dims []string, withCube bool) (method, path string, body []byte) {
	if q.shape == shPoint {
		p := []byte("/query/point?")
		if withCube {
			p = append(p, "cube=live&"...)
		}
		for i, k := range q.keys {
			if i > 0 {
				p = append(p, '&')
			}
			p = append(p, "key="...)
			p = append(p, url.QueryEscape(k)...)
		}
		return "GET", string(p), nil
	}
	b := []byte{'{'}
	if withCube {
		b = append(b, `"cube":"live",`...)
	}
	switch q.shape {
	case shRange:
		path = "/query/range"
	case shGroupBy:
		path = "/query/groupby"
		b = append(b, `"dim":`...)
		b = strconv.AppendQuote(b, dims[q.dim])
		b = append(b, ',')
	case shPivot:
		path = "/query/pivot"
		b = append(b, `"dims":[`...)
		for i, d := range q.dims {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendQuote(b, dims[d])
		}
		b = append(b, "],"...)
	case shTopK:
		path = "/query/topk"
		b = append(b, `"dim":`...)
		b = strconv.AppendQuote(b, dims[q.dim])
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(q.spec.K), 10)
		b = append(b, `,"by":`...)
		b = strconv.AppendQuote(b, q.spec.By.String())
		b = append(b, ',')
	}
	b = append(b, `"selectors":[`...)
	for i, s := range q.sels {
		if i > 0 {
			b = append(b, ',')
		}
		b = s.appendJSON(b)
	}
	b = append(b, "]}"...)
	return "POST", path, b
}

// rawRequest renders a complete HTTP/1.1 request for the raw-TCP client.
func rawRequest(method, path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}
