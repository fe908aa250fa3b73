// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output against committed
// reference digests, and prints one JSON result line:
//
//	python3 perfbench/run.py --workload synth-sweep --seed 1 --seconds 20 --trace 0
//
// Workloads: synth-sweep and sim-sweep are closed-loop batches through
// bsor.NewPipeline(...).RunAll in a child process; serve-mix is
// open-loop HTTP traffic against a bsord child process. --trace 1 adds a
// second pass that rebuilds the same work from each layer's public
// functions, with spans, and reports per-layer metrics instead.
//
// -write-ref regenerates perfbench/ref from the current program.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bsor"
)

// config is the command line.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	child     bool
	setupOnly bool
}

// setupRuns is how many times a run sets up the measured process, half
// before and half after the measured run (so the samples straddle the
// host's state during the run), plus the measured launch itself; the
// median is reported.
const setupRuns = 21

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// e2eMetrics are reported by every workload with --trace 0. Work is
// explore cells (synth-sweep), simulated cycles (sim-sweep) or
// successful responses (serve-mix).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
}

// layerMetrics are reported by every workload with --trace 1; a layer a
// workload does not reach reads 0. An op is one explore cell, one spec's
// sweep or churn run, or one HTTP request.
var layerMetrics = []metricDef{
	{"synth_jobs_per_s", "1/s"}, {"sim_cycles_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"cpu_ms_per_op", "ms"},
	{"synthesize_p50_ms", "ms"}, {"synthesize_p99_ms", "ms"},
	{"sim_p50_ms", "ms"}, {"sim_p90_ms", "ms"}, {"fail_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.offered_rps", "1/s"}, {"loadgen.requests", "count"},
	{"server.requests", "count"}, {"server.cache_hits", "count"}, {"server.dedup", "count"},
	{"server.computes", "count"}, {"server.shed", "count"}, {"server.errors", "count"},
	{"server.cache_hit_ratio", "ratio"}, {"server.compute_busy_s", "s"}, {"server.wait_s", "s"},
	{"server.hit_p50_ms", "ms"}, {"server.miss_p50_ms", "ms"},
	{"bsor.canonical_us", "us"},
	{"experiments.jobs", "count"}, {"experiments.job_busy_s", "s"},
	{"experiments.synth_cache_hits", "count"}, {"experiments.synth_cache_misses", "count"},
	{"core.breakers", "count"}, {"core.breaker_failures", "count"},
	{"cdg.full_s", "s"}, {"cdg.break_s", "s"}, {"flowgraph.build_s", "s"},
	{"route.dijkstra_s", "s"}, {"route.heuristic_s", "s"}, {"route.baseline_s", "s"},
	{"route.check_s", "s"}, {"route.paths_kept", "count"}, {"route.paths_deduped", "count"},
	{"route.milp_s", "s"}, {"lp.pivots", "count"}, {"lp.refactorizations", "count"},
	{"lp.bb_nodes", "count"}, {"lp.us_per_pivot", "us"},
	{"certify.s", "s"}, {"certify.calls", "count"},
	{"topology.build_s", "s"}, {"traffic.flows_s", "s"},
	{"sim.setup_s", "s"}, {"sim.run_s", "s"}, {"sim.cycles", "count"}, {"sim.flit_hops", "count"},
	{"sim.points", "count"}, {"sim.ns_per_flit_hop", "ns"},
	{"churn.run_s", "s"}, {"churn.faults", "count"}, {"churn.resynth_wall_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"props.key_repeat_frac", "ratio"}, {"props.key_repeat_base", "count"},
	{"props.sim_synth_reuse_frac", "ratio"}, {"props.sim_synth_reuse_base", "count"},
	{"props.milp_time_frac", "ratio"}, {"props.milp_time_base_s", "s"},
	{"props.cycles_64x64_frac", "ratio"}, {"props.cycles_64x64_base", "count"},
	{"host.cpus", "count"}, {"host.gomaxprocs", "count"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	properties        map[string]float64
	// classMs is the mean op latency per op class (batch workloads),
	// reported with the provenance to show where time went.
	classMs map[string]float64
}

func main() {
	var cfg config
	writeRef := flag.Bool("write-ref", false, "regenerate perfbench/ref from the current program and exit")
	flag.StringVar(&cfg.workload, "workload", "", "synth-sweep, sim-sweep or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	traceN := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	flag.BoolVar(&cfg.child, "child", false, "internal: run as the measured batch process")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "internal: exit once set up")
	flag.Parse()
	cfg.trace = *traceN == 1
	if *writeRef {
		if err := writeReferences(); err != nil {
			fatal(err)
		}
		return
	}
	if cfg.child {
		if err := batchChild(cfg); err != nil {
			fatal(err)
		}
		return
	}
	var out outcome
	var err error
	switch cfg.workload {
	case "synth-sweep", "sim-sweep":
		out, err = batchParent(cfg)
	case "serve-mix":
		out, err = serveMix(cfg)
	default:
		err = fmt.Errorf("unknown --workload %q (synth-sweep, sim-sweep, serve-mix)", cfg.workload)
	}
	if err != nil {
		fatal(err)
	}
	report(cfg, out)
	if out.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// report prints the provenance line and then the result line.
func report(cfg config, out outcome) {
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", p)
	}
	prov := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "source": sourceDigest(), "properties": out.properties,
	}
	if len(out.classMs) > 0 {
		prov["class_mean_ms"] = out.classMs
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))

	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
		out.metrics["fail_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
		out.metrics["host.cpus"] = float64(runtime.NumCPU())
		out.metrics["host.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		for k, v := range out.properties {
			out.metrics[k] = v
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s is undefined in this run; reported as 0\n", d.name)
			v = 0
		}
		ms[d.name] = value{v, d.unit}
	}
	res, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, ms})
	fmt.Println(string(res))
}

// sourceDigest identifies the program under test: a hash of the Go
// sources and module file outside the benchmark (the checkout the
// benchmark runs in is not a git repository, so there is no commit id).
func sourceDigest() string {
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || p == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// launched is a measured process that has reported ready.
type launched struct {
	cmd   *exec.Cmd
	setup time.Duration // from exec to the ready line
	lines <-chan string // the rest of its stdout, closed at EOF
}

// launch starts a measured process and returns once it prints the line
// ready accepts. The caller drains lines and waits for the process.
func launch(name string, args []string, ready func(line string) bool) (*launched, error) {
	cmd := exec.Command(name, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// Sized to the few lines a child prints, so the reader never blocks
	// once ready has been seen and nobody drains the rest.
	lines := make(chan string, 16)
	readyAt := make(chan time.Time, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<30)
		seen := false
		for sc.Scan() {
			if !seen && ready(sc.Text()) {
				seen = true
				readyAt <- time.Now()
				continue
			}
			lines <- sc.Text()
		}
		if !seen {
			close(readyAt)
		}
	}()
	t, ok := <-readyAt
	if !ok {
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s exited before it was ready", filepath.Base(name))
	}
	return &launched{cmd: cmd, setup: t.Sub(start), lines: lines}, nil
}

// rusage returns the peak RSS (MB) and CPU seconds of an exited process.
func rusage(cmd *exec.Cmd) (rssMB, cpuS float64) {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return float64(ru.Maxrss) / 1024, cpu.Seconds()
}

// batchParent sets up the batch child setupRuns times, then runs it and
// checks and summarizes what it reports.
func batchParent(cfg config) (outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return outcome{}, err
	}
	args := []string{"-child", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", map[bool]string{false: "0", true: "1"}[cfg.trace]}
	isReady := func(l string) bool { return l == "ready" }
	var setups []float64
	setUp := func(n int) error {
		for i := 0; i < n; i++ {
			l, err := launch(self, append(args, "-setup-only"), isReady)
			if err != nil {
				return err
			}
			for range l.lines {
			}
			if err := l.cmd.Wait(); err != nil {
				return fmt.Errorf("set-up run: %w", err)
			}
			setups = append(setups, l.setup.Seconds())
		}
		return nil
	}
	if err := setUp(setupRuns / 2); err != nil {
		return outcome{}, err
	}
	l, err := launch(self, args, isReady)
	if err != nil {
		return outcome{}, err
	}
	setups = append(setups, l.setup.Seconds())
	stop := make(chan struct{})
	peak := peakRSS(l.cmd.Process.Pid, stop)
	var rep childReport
	var decodeErr error = errors.New("batch child printed no result")
	for line := range l.lines {
		if rest, ok := strings.CutPrefix(line, "result "); ok {
			decodeErr = json.Unmarshal([]byte(rest), &rep)
		}
	}
	close(stop)
	rssWindows := <-peak
	if err := l.cmd.Wait(); err != nil {
		return outcome{}, fmt.Errorf("batch child: %w", err)
	}
	if decodeErr != nil {
		return outcome{}, decodeErr
	}
	rss, cpu := rusage(l.cmd)
	if err := setUp(setupRuns / 2); err != nil {
		return outcome{}, err
	}
	out, err := checkBatch(cfg.workload, rep)
	if err != nil {
		return outcome{}, err
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["peak_rss_mb"] = rss
	if rssWindows > 0 {
		out.metrics["peak_rss_mb"] = rssWindows
	}
	out.metrics["cpu_ms_per_op"] = cpu * 1000 / float64(len(rep.Ops))
	return out, nil
}

// rssWindow is the window of the peak_rss_mb metric.
const rssWindow = 3 * time.Second

// peakRSS samples a measured process until stop is closed: every
// rssWindow it reads the peak RSS (MB) since the previous reading and
// resets the high-water mark (Linux /proc). It returns the median of the
// window peaks, or 0 where /proc does not offer them. A single peak
// over the whole run is one extreme of the garbage collector's timing;
// the median window peak is the memory a run typically holds at its
// busiest.
func peakRSS(pid int, stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	take := func() (float64, bool) {
		b, err := os.ReadFile(filepath.Join(dir, "status"))
		if err != nil {
			return 0, false
		}
		_, rest, ok := strings.Cut(string(b), "VmHWM:")
		if !ok {
			return 0, false
		}
		line, _, _ := strings.Cut(rest, "\n")
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), "kB")), 64)
		if err != nil || os.WriteFile(filepath.Join(dir, "clear_refs"), []byte("5"), 0) != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	take() // drop set-up
	go func() {
		var peaks []float64
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-stop:
				if p, ok := take(); ok {
					peaks = append(peaks, p)
				}
				out <- median(peaks)
				return
			}
			if p, ok := take(); ok {
				peaks = append(peaks, p)
			}
		}
	}()
	return out
}

// childReport is the batch child's result line.
type childReport struct {
	WallNs int64              `json:"wall_ns"`
	Ops    []opResult         `json:"ops"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// batchChild is the measured batch process.
func batchChild(cfg config) error {
	gen := passFn(cfg.workload)
	gen(cfg.seed, 0)
	fmt.Println("ready")
	if cfg.setupOnly {
		return nil
	}
	ctx := context.Background()
	var m *bsor.Metrics
	if cfg.trace {
		m = bsor.NewMetrics()
	}
	results, wall := closedLoop(cfg.seed, cfg.seconds, gen, facadeOp(ctx, m))
	rep := childReport{WallNs: int64(wall), Ops: results}
	if cfg.trace {
		rep.Layers = traceBatch(ctx, results, wall, m)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "result %s\n", b)
	return w.Flush()
}

// checkBatch gates a batch report against the reference and derives the
// workload's metrics.
func checkBatch(workload string, rep childReport) (outcome, error) {
	ref, err := loadRef(workload)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{attempted: len(rep.Ops), metrics: map[string]float64{}, properties: map[string]float64{},
		classMs: map[string]float64{}}
	var lats []float64
	classN := map[string]float64{}
	var units, milpNs, totalNs, cycles64, cycles float64
	for _, r := range rep.Ops {
		lats = append(lats, float64(r.LatNs)/1e6)
		out.classMs[r.Class] += float64(r.LatNs) / 1e6
		classN[r.Class]++
		units += r.Units
		totalNs += float64(r.LatNs)
		if r.Class == "BSOR-MILP" {
			milpNs += float64(r.LatNs)
		}
		if r.Class == "64x64" {
			cycles64 += r.Units
		}
		cycles += r.Units
		bad := gate(ref, map[string]string{r.Key: r.Digest})
		if want, ok := anchors[r.Key]; ok && !strings.Contains(r.Digest, " mcl="+want+" ") {
			bad = append(bad, fmt.Sprintf("%s: paper anchor MCL %s, got %s", r.Key, want, r.Digest))
		}
		if r.Err != "" {
			bad = append(bad, r.Key+": "+r.Err)
		}
		if r.Trace != "" && r.Trace != r.Digest {
			bad = append(bad, fmt.Sprintf("%s: traced composition gave %s, facade %s", r.Key, r.Trace, r.Digest))
		}
		if len(bad) > 0 {
			out.failed++
			out.problems = append(out.problems, bad...)
		}
	}
	for c, n := range classN {
		out.classMs[c] /= n
	}
	wall := time.Duration(rep.WallNs).Seconds()
	out.metrics["work_per_s"] = units / wall
	p50, ok := percentile(lats, 0.5)
	if !ok && len(rep.Layers) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d ops; op_p50_ms has fewer than %d samples beyond it\n", len(lats), minBeyond)
	}
	out.metrics["op_p50_ms"] = p50
	for k, v := range rep.Layers {
		out.metrics[k] = v
	}
	if workload == "synth-sweep" {
		out.metrics["synth_jobs_per_s"] = units / wall
		out.properties["props.milp_time_frac"] = milpNs / totalNs
		out.properties["props.milp_time_base_s"] = totalNs / 1e9
	} else {
		out.metrics["sim_cycles_per_s"] = units / wall
		out.properties["props.cycles_64x64_frac"] = cycles64 / cycles
		out.properties["props.cycles_64x64_base"] = cycles
	}
	return out, nil
}

// refPath locates a workload's committed reference digests.
func refPath(workload string) string { return filepath.Join("perfbench", "ref", workload+".json") }

func loadRef(workload string) (map[string]string, error) {
	b, err := os.ReadFile(refPath(workload))
	if err != nil {
		return nil, fmt.Errorf("reference digests: %w", err)
	}
	var ref map[string]string
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("reference digests %s: %w", refPath(workload), err)
	}
	return ref, nil
}

// writeReferences recomputes every digest a seed can reach, through the
// facade, and writes the reference files.
func writeReferences() error {
	ctx := context.Background()
	for _, w := range []struct {
		name string
		ops  []op
	}{{"synth-sweep", synthAll()}, {"sim-sweep", simAll()}} {
		ref := make(map[string]string)
		fn := facadeOp(ctx, nil)
		results, _ := replay(len(w.ops), func(i int) opResult { return fn(w.ops[i]) })
		for _, r := range results {
			if r.Err != "" {
				return fmt.Errorf("%s: %s", r.Key, r.Err)
			}
			ref[r.Key] = r.Digest
		}
		if err := checkAnchors(ref); err != nil {
			return err
		}
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(refPath(w.name), append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d digests to %s\n", len(ref), refPath(w.name))
	}
	return nil
}
