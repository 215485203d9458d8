package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cubestore"
	"repro/internal/dwarf"
	"repro/internal/serve"
)

// dwarfdStore is the store configuration `dwarfd -live` runs with by
// default; rollups are added per workload.
func dwarfdStore(rollups [][]string) cubestore.Options {
	return cubestore.Options{
		Dims:       dims,
		SealTuples: cubestore.DefaultSealTuples,
		SealAge:    time.Minute,
		Workers:    1,
		CacheBytes: 64 << 20,
		Rollups:    rollups,
	}
}

var dashRollups = [][]string{{"Area", "Status"}}

// system is one running copy of the system under test: a live dwarfd
// (serve.New over a cubestore) or a gateway over three -cluster-node
// dwarfds, each behind a loopback TCP listener.
type system struct {
	dir     string
	store   *cubestore.Store // the single node
	nodes   []*cubestore.Store
	coord   *cluster.Coordinator
	handler http.Handler // dwarfd's or the gateway's route table
	addr    string
	// partials counts /query/partial requests reaching the nodes; only
	// traced runs install the counter.
	partials *atomic.Int64
	// idle marks the dashboard set-up, which is defined on its 9 day
	// segments: no compaction may run while it serves.
	idle         bool
	compactions0 int64

	servers []*http.Server
	serving []chan error
}

// serveOn starts srv on a fresh loopback listener and returns its address.
func (s *system) serveOn(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	s.servers = append(s.servers, srv)
	s.serving = append(s.serving, done)
	return ln.Addr().String(), nil
}

// close shuts the system down and removes its directory.
func (s *system) close() error {
	return errors.Join(s.shutdown(), os.RemoveAll(s.dir))
}

// shutdown stops every server (waiting for each Serve to return), then
// every store, leaving the files in place. It fails an idle system whose
// store compacted since set-up.
func (s *system) shutdown() error {
	var errs []error
	if s.idle && s.store != nil {
		if n := s.store.Stats().Compactions - s.compactions0; n != 0 {
			errs = append(errs, fmt.Errorf("%d compactions since set-up: the day-segment layout the dashboard is defined on did not hold", n))
		}
	}
	for i, srv := range s.servers {
		errs = append(errs, srv.Close())
		if err := <-s.serving[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	s.servers, s.serving = nil, nil
	for _, st := range append([]*cubestore.Store{s.store}, s.nodes...) {
		if st != nil {
			errs = append(errs, st.Close())
		}
	}
	s.store, s.nodes = nil, nil
	return errors.Join(errs...)
}

// preloadDays seals the Week one calendar day per segment (the tuples
// arrive in time order) and builds the (Area, Status) rollup, without
// merging the day segments: the fanout is set out of reach for this one
// maintenance pass.
func preloadDays(dir string, week []dwarf.Tuple) error {
	s, err := cubestore.Open(dir, cubestore.Options{
		Dims: dims, NoSync: true, DisableAutoCompact: true,
		SealTuples: 1 << 30, CompactFanout: 1 << 20, Rollups: dashRollups,
	})
	if err != nil {
		return err
	}
	start := 0
	for i := 1; i <= len(week); i++ {
		if i < len(week) && week[i].Dims[dDay] == week[start].Dims[dDay] {
			continue
		}
		if err = s.Append(week[start:i]); err != nil {
			break
		}
		if err = s.Seal(); err != nil {
			break
		}
		start = i
	}
	if err == nil {
		_, err = s.Compact()
	}
	return errors.Join(err, s.Close())
}

// startLive is the dashboard / ingest_fresh set-up: the day-sliced Week
// preload, reopened with dwarfd's defaults plus the (Area, Status) rollup,
// served by serve.New behind serve.NewHTTPServer.
func startLive(root string, week []dwarf.Tuple, idle bool) (*system, error) {
	dir, err := os.MkdirTemp(root, "live-")
	if err != nil {
		return nil, err
	}
	s := &system{dir: dir, idle: idle}
	if err := s.startLive(week); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *system) startLive(week []dwarf.Tuple) error {
	if err := preloadDays(s.dir, week); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	st, err := cubestore.Open(s.dir, dwarfdStore(dashRollups))
	if err != nil {
		return err
	}
	s.store = st
	stats := st.Stats()
	if n := len(stats.Segments); n != 9 {
		return fmt.Errorf("preload left %d segments, want 9 day segments", n)
	}
	s.compactions0 = stats.Compactions
	srv, err := serve.New(serve.Options{Dir: s.dir, CacheSize: serve.DefaultCacheSize,
		GroupLimit: serve.DefaultGroupLimit, Store: st})
	if err != nil {
		return err
	}
	s.handler = srv.Handler()
	s.addr, err = s.serveOn(serve.NewHTTPServer("", s.handler))
	return err
}

const clusterNodes = 3

// startCluster is the cluster_mixed set-up: three -cluster-node dwarfds
// (live stores with dwarfd defaults), a Coordinator and a gateway like
// dwarfgw's, with the Week loaded hash-partitioned through the
// Coordinator and each node's memtable sealed so every pass starts from
// the same segment layout.
func startCluster(root string, week []dwarf.Tuple, countPartials bool) (*system, error) {
	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	s := &system{dir: dir}
	if countPartials {
		s.partials = new(atomic.Int64)
	}
	if err := s.startCluster(week); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *system) startCluster(week []dwarf.Tuple) error {
	var urls []string
	for i := 0; i < clusterNodes; i++ {
		nd := filepath.Join(s.dir, fmt.Sprintf("node%d", i))
		st, err := cubestore.Open(nd, dwarfdStore(nil))
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, st)
		srv, err := serve.New(serve.Options{Dir: nd, CacheSize: serve.DefaultCacheSize,
			GroupLimit: serve.DefaultGroupLimit, Store: st, ClusterNode: true})
		if err != nil {
			return err
		}
		h := srv.Handler()
		if c := s.partials; c != nil {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/query/partial" {
					c.Add(1)
				}
				inner.ServeHTTP(w, r)
			})
		}
		addr, err := s.serveOn(serve.NewHTTPServer("", h))
		if err != nil {
			return err
		}
		urls = append(urls, "http://"+addr)
	}
	coord, err := cluster.New(cluster.Options{Nodes: urls, Dims: dims})
	if err != nil {
		return err
	}
	s.coord = coord
	const batch = 4096
	for i := 0; i < len(week); i += batch {
		if err := coord.Append(week[i:min(i+batch, len(week))]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for _, st := range s.nodes {
		if err := st.Seal(); err != nil {
			return err
		}
	}
	s.handler = cluster.NewGateway(coord, cluster.DefaultGroupLimit).Handler()
	s.addr, err = s.serveOn(&http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second})
	return err
}

func (s *system) querier() querier {
	if s.coord != nil {
		return s.coord
	}
	return s.store
}

func (s *system) stores() []*cubestore.Store {
	if s.store != nil {
		return []*cubestore.Store{s.store}
	}
	return s.nodes
}

// statsSum adds the counters of every store of the system.
func (s *system) statsSum() cubestore.Stats {
	var t cubestore.Stats
	for _, st := range s.stores() {
		x := st.Stats()
		t.TotalTuples += x.TotalTuples
		t.Seals += x.Seals
		t.Compactions += x.Compactions
		t.CacheHits += x.CacheHits
		t.CacheMisses += x.CacheMisses
		t.CacheStale += x.CacheStale
		t.RollupHits += x.RollupHits
		t.SegmentsScanned += x.SegmentsScanned
		t.SegmentsPruned += x.SegmentsPruned
		t.GroupCommits += x.GroupCommits
		t.FsyncsSaved += x.FsyncsSaved
		t.SealQueueDepth = max(t.SealQueueDepth, x.SealQueueDepth)
		if x.LastSealError != "" || x.LastCompactError != "" {
			t.LastSealError += x.LastSealError + x.LastCompactError
		}
	}
	return t
}

// dirBytes is the on-disk footprint of every file under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
