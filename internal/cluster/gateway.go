package cluster

import (
	"encoding/json"
	"net/http"

	"repro/internal/serve"
)

// Gateway is the cluster's client-facing HTTP surface (cmd/dwarfgw):
// dwarfd's own query server, serve.New with the Coordinator as its live
// backend — the same endpoints, request bodies, envelopes and
// zero-allocation encoders as a single dwarfd — plus a /cluster/stats
// probe. On the gateway the "cube" request field may be omitted: the
// server has no cube directory, so every query addresses the cluster.
//
// Failure semantics per request: by default a node failure fails the query
// with 502 and an error naming every failed node. A request carrying
// "allow_partial": true instead gets the merge over the surviving nodes,
// explicitly marked with "partial": true and the failed node list — the
// two responses are never confusable, and a silently short total is
// impossible by construction.
type Gateway struct {
	coord *Coordinator
	srv   *serve.Server
}

// DefaultGroupLimit caps groups per keyed gateway response, like dwarfd's.
const DefaultGroupLimit = serve.DefaultGroupLimit

// NewGateway wraps a coordinator. groupLimit <= 0 means DefaultGroupLimit.
func NewGateway(c *Coordinator, groupLimit int) *Gateway {
	srv, err := serve.New(serve.Options{Store: c, GroupLimit: groupLimit})
	if err != nil {
		// serve.New fails only without a backend or with a time dimension
		// lacking its layout; neither can happen here.
		panic(err)
	}
	return &Gateway{coord: c, srv: srv}
}

// Handler returns the gateway's route table: dwarfd's, plus /cluster/stats.
func (g *Gateway) Handler() http.Handler {
	h := g.srv.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/stats" {
			g.handleStats(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

type nodeStat struct {
	Node       string `json:"node"`
	OK         bool   `json:"ok"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// handleStats probes every node's store generation concurrently and lists
// each node's health next to the cluster's dimensions.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	nodes := g.coord.snapshot()
	stats := make([]nodeStat, len(nodes))
	type genRes struct {
		gen uint64
		err error
	}
	parts, _ := scatter(nodes, func(n *node) (genRes, error) {
		gen, err := n.generation()
		return genRes{gen: gen, err: err}, nil
	})
	for i, p := range parts {
		stats[i] = nodeStat{Node: nodes[i].base, OK: p.err == nil, Generation: p.gen}
		if p.err != nil {
			stats[i].Error = p.err.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"dims":  g.coord.dims,
		"nodes": stats,
	})
}
