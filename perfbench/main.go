// Command perfbench is the repository's end-to-end benchmark: one seeded
// workload per run against the real system (feed parse, DWARF build and
// encode, NoSQL-DWARF persistence, the live store behind dwarfd's HTTP
// surface, and the dwarfgw cluster), every answer checked against a batch
// dwarf.New oracle. See README.md for workloads and metric definitions.
//
//	go run . --workload dashboard --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). The lines before it are the human-readable report.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed metrics.json
var metricsJSON []byte

// declared is one metric as BENCHMARK.json names it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// layerDef is one per-layer entry of metrics.json: where the benchmark
// measures the layer and the end-to-end metrics it should move.
type layerDef struct {
	MeasuredIn []string `json:"measured_in"`
	Moves      []string `json:"moves"`
	MostWork   string   `json:"most_work"`
	LittleWork string   `json:"little_work"`
}

func (d layerDef) measures(workload string) bool {
	for _, w := range d.MeasuredIn {
		if w == workload {
			return true
		}
	}
	return false
}

// metricSet is the metrics the run reports: names and units from
// BENCHMARK.json, the layer map from metrics.json.
type metricSet struct {
	endToEnd, perLayer []declared
	layers             map[string]layerDef
}

// loadMetrics reads BENCHMARK.json at the checkout root and the embedded
// metrics.json, which must define exactly the metrics the former declares.
func loadMetrics() (metricSet, error) {
	var ms metricSet
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return ms, fmt.Errorf("read BENCHMARK.json (run from the checkout root): %w", err)
	}
	var bench struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return ms, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var defs struct {
		EndToEnd map[string]json.RawMessage `json:"end_to_end"`
		PerLayer map[string]layerDef        `json:"per_layer"`
	}
	if err := json.Unmarshal(metricsJSON, &defs); err != nil {
		return ms, fmt.Errorf("metrics.json: %w", err)
	}
	for _, d := range bench.EndToEnd {
		if _, ok := defs.EndToEnd[d.Name]; !ok {
			return ms, fmt.Errorf("metrics.json does not define %s", d.Name)
		}
	}
	for _, d := range bench.PerLayer {
		if _, ok := defs.PerLayer[d.Name]; !ok {
			return ms, fmt.Errorf("metrics.json does not define %s", d.Name)
		}
	}
	if len(defs.EndToEnd) != len(bench.EndToEnd) || len(defs.PerLayer) != len(bench.PerLayer) {
		return ms, fmt.Errorf("metrics.json defines metrics BENCHMARK.json does not declare")
	}
	return metricSet{bench.EndToEnd, bench.PerLayer, defs.PerLayer}, nil
}

var workloads = map[string]func(*runCtx) error{
	"feed_to_cube":  runFeed,
	"dashboard":     runHTTP,
	"ingest_fresh":  runHTTP,
	"cluster_mixed": runHTTP,
}

// runCtx carries one run's arguments and collects its result.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	perturb  bool   // negative self-test: the oracle is perturbed
	root     string // scratch directory inside the checkout
	mem      offHeap
	defs     metricSet

	attempted, failed int
	checks            []string // failed correctness checks, for the report
	metrics           map[string]float64
	report            []string
}

func (r *runCtx) set(name string, v float64) { r.metrics[name] = v }

func (r *runCtx) logf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail counts one failed op and keeps the first few reasons.
func (r *runCtx) fail(format string, args ...any) {
	r.failed++
	if len(r.checks) < 20 {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// timing reports a latency sample set as median and p99 into the named
// metrics, with the sample count and the samples beyond the percentile.
func (r *runCtx) timing(prefix string, ns []int64) {
	s := summarize(ns)
	r.set(prefix+"_p50_ms", s.p50/1e6)
	r.set(prefix+"_p99_ms", s.p99/1e6)
	r.logf("  %-22s p50 %.4f ms  p99 %.4f ms  (n=%d, %d beyond p99)", prefix, s.p50/1e6, s.p99/1e6, s.n, s.beyond)
}

type summary struct {
	n, beyond int
	p50, p99  float64
}

// summarize takes nearest-rank percentiles of a sample (sorted in place).
// An empty sample has NaN percentiles, which the run refuses to report.
func summarize(ns []int64) summary {
	if len(ns) == 0 {
		return summary{p50: math.NaN(), p99: math.NaN()}
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(len(ns))))-1, 0) }
	i99 := rank(0.99)
	return summary{n: len(ns), beyond: len(ns) - i99 - 1,
		p50: float64(ns[rank(0.5)]), p99: float64(ns[i99])}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func main() {
	workload := flag.String("workload", "", "feed_to_cube | dashboard | ingest_fresh | cluster_mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	selftest := flag.Bool("selftest", false, "negative self-test: perturb the oracle; the run must come out incorrect")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *selftest); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, selftest bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	defs, err := loadMetrics()
	if err != nil {
		return err
	}
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(base, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	r := &runCtx{workload: workload, seed: seed, seconds: seconds, trace: trace, perturb: selftest,
		root: root, defs: defs, metrics: map[string]float64{}}
	defer r.mem.free()
	prov := provenance(r)
	if err := fn(r); err != nil {
		return err
	}
	want := defs.endToEnd
	if trace {
		want = defs.perLayer
	}
	out := map[string]map[string]any{}
	for _, d := range want {
		v, ok := r.metrics[d.Name]
		if trace && !defs.layers[d.Name].measures(workload) {
			// The layer map says this workload makes no call at the
			// metric's boundary: it did no work there.
			if ok {
				return fmt.Errorf("workload %s measured %s, which metrics.json does not list it for", workload, d.Name)
			}
			v, ok = 0, true
		}
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v (no samples)", d.Name, v)
		}
		out[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no ops attempted")
	}
	for _, line := range prov {
		fmt.Println(line)
	}
	for _, line := range r.report {
		fmt.Println(line)
	}
	for _, c := range r.checks {
		fmt.Println("  FAILED CHECK:", c)
	}
	fmt.Printf("  ops attempted %d, failed %d (ops_failed_frac %.6f)\n",
		r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	if selftest {
		if r.failed == 0 {
			return fmt.Errorf("self-test: the perturbed oracle passed the correctness gate")
		}
		fmt.Printf("  self-test: the perturbed oracle failed %d of %d ops, as it must\n", r.failed, r.attempted)
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// provenance records what the numbers were measured on.
func provenance(r *runCtx) []string {
	rev := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%v selftest=%v",
			r.workload, r.seed, r.seconds, r.trace, r.perturb),
		fmt.Sprintf("  provenance: preset=Week go=%s GOMAXPROCS=%d nproc=%d os/arch=%s/%s git=%s source_sha256=%s",
			runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH,
			rev, sourceDigest()),
	}
}

// sourceDigest hashes the Go sources and module files of the checkout the
// benchmark runs in, so a result names the code it measured even where no
// git revision is available.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
