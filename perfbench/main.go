// Command perfbench is the repository's benchmark. It runs one workload
// (construct or cluster-zipf) for a fixed time, checks every
// answer, and prints its metrics as one JSON object on the last line of
// standard output. The line before it stamps the run with the host
// fingerprint and the figures behind each metric.
//
//	perfbench --workload construct --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// again with spans recorded around every layer call, writes them to
// .bench_build/traces, and reports the per-layer metrics instead.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// defaultSeed is the seed the recorded construct digests belong to.
const defaultSeed = 1

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit; BENCHMARK.json lists the same names. Every workload reports every
// end-to-end metric.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"sinks_per_s":  "sinks/s",
	"heap_peak_mb": "MB",
	"p50_ms":       "ms",
	"tail_ms":      "ms",
	"max_rate_rps": "req/s",
	"ok_frac":      "ratio",
}

var workloads = []string{"construct", "cluster-zipf"}

var perLayer = map[string]string{
	"core.route_ms":             "ms",
	"core.init_ms":              "ms",
	"core.greedy_ms":            "ms",
	"core.embed_ms":             "ms",
	"core.pair_evals":           "count",
	"core.evals_skipped":        "count",
	"core.memo_hit_ratio":       "ratio",
	"core.cands_per_search":     "count",
	"core.p90_cands_per_search": "count",
	"core.regions_visited":      "count",
	"core.index_rebuilds":       "count",
	"core.alloc_kb_per_sink":    "KB",
	"core.allocs_per_route":     "count",
	"bench.generate_ms":         "ms",
	"activity.profile_ms":       "ms",
	"power.evaluate_ms":         "ms",
	"verify.tree_ms":            "ms",
	"verify.report_ms":          "ms",
	"topology.digest_ms":        "ms",
	"serve.decode_us":           "us",
	"serve.resolve_us":          "us",
	"serve.req_digest_us":       "us",
	"serve.encode_us":           "us",
	"serve.handler_hit_us":      "us",
	"serve.queue_wait_p50_ms":   "ms",
	"serve.queue_wait_tail_ms":  "ms",
	"serve.route_ms":            "ms",
	"serve.hit_ratio":           "ratio",
	"serve.coalesced":           "count",
	"serve.shed":                "count",
	"cluster.l1_hit_ratio":      "ratio",
	"cluster.l2_hit_ratio":      "ratio",
	"cluster.peek_useful_ratio": "ratio",
	"cluster.peer_hit_ratio":    "ratio",
	"cluster.forward_ratio":     "ratio",
	"cluster.l1_us":             "us",
	"cluster.forward_ms":        "ms",
	"cluster.failovers":         "count",
	"loadgen.lag_ms":            "ms",
	"loadgen.inflight_max":      "count",
	"obs.trace_overhead_frac":   "ratio",
	"self.loadgen_ms":           "ms",
	"self.cluster_ms":           "ms",
	"self.serve_ms":             "ms",
	"self.core_ms":              "ms",
	"self.lib_ms":               "ms",
}

type args struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// result collects one run's outcome.
type result struct {
	attempted, failed int
	wrong             bool // an answer failed a correctness check
	failures          []string
	metrics           map[string]float64
	details           map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, details: map[string]any{}}
}

func (r *result) metric(name string, v float64) { r.metrics[name] = v }

func (r *result) detail(name string, v any) { r.details[name] = v }

// fail counts one failed operation.
func (r *result) fail(format string, a ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// wrongAnswer counts a failed operation whose answer was incorrect.
func (r *result) wrongAnswer(format string, a ...any) {
	r.wrong = true
	r.fail(format, a...)
}

func main() {
	var a args
	flag.StringVar(&a.workload, "workload", "", "construct | cluster-zipf")
	flag.Uint64Var(&a.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&a.seconds, "seconds", 30, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	a.trace = *trace == 1
	if err := run(a, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(a args, out io.Writer) error {
	if !slices.Contains(workloads, a.workload) {
		return fmt.Errorf("unknown workload %q (want construct or cluster-zipf)", a.workload)
	}
	if a.seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", a.seconds)
	}
	res := newResult()
	var err error
	switch a.workload {
	case "construct":
		err = runConstruct(a, res)
	case "cluster-zipf":
		err = runService(a, res, clusterZipf)
	}
	if err != nil {
		return err
	}
	if res.attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}

	units := endToEnd
	if a.trace {
		units = perLayer
	}
	metrics := map[string]any{}
	for n, unit := range units {
		// A per-layer metric of a layer the workload does not reach
		// reads 0; an end-to-end metric is always measured.
		v, ok := res.metrics[n]
		if !ok && !a.trace {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		metrics[n] = map[string]any{"value": v, "unit": unit}
	}
	meta := map[string]any{
		"workload": a.workload,
		"seed":     a.seed,
		"seconds":  a.seconds,
		"trace":    a.trace,
		"host":     fingerprint(),
		"details":  res.details,
		"failures": res.failures,
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   !res.wrong,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}

// fingerprint identifies the host and the source a result came from.
func fingerprint() map[string]any {
	sha := os.Getenv("PERFBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_sha":       sha,
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the repository's Go sources and module files, so a
// result names the code it measured even where no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
