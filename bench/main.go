// Command bench is the repository's benchmark: four workloads driven
// through the public tdp.Handle and condor.Pool APIs, the same
// end-to-end metrics for each reported as medians across the rounds of
// a long timed phase, a correctness check on every result, and — in a
// separate traced run — a ladder of calls into each layer whose
// adjacent differences are the layers' costs. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload local_ops -seed 1 -trace 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// outDir is where a run writes its JSON record, its trace and its
// per-run temp directory. The path is relative on purpose: unix socket
// paths are limited to about 100 bytes, and a relative TMPDIR keeps
// them short wherever the checkout lives. A variable only so the smoke
// test can point it elsewhere.
var outDir = "bench/out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: launch, local_ops, global_read, global_write, or all (each in a fresh child process, one after another)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated op stream")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	selfcheck := flag.Int("selfcheck", 0, "run two interleaved sets of this many untraced runs of every workload and check them against the bounds in BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 || *selfcheck < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck > 0 {
		os.Exit(runSelfCheck(*selfcheck, o.seed))
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	os.Exit(runOne(o))
}

// runAll runs every workload in a child process of its own, one after
// another, so no workload inherits another's heap, caches or sockets.
func runAll(o options) int {
	code := 0
	for _, name := range workloadNames() {
		out, _, err := childRun(name, o.seed, o.seconds, o.trace)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// childRun runs one workload in a child process and returns what it
// printed and the result line that ends it.
func childRun(workload string, seed uint64, seconds float64, trace bool) ([]byte, *result, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return out, nil, fmt.Errorf("result line: %w", err)
	}
	return out, &res, nil
}

// runRecord is what a run knows about itself; it heads the JSON file.
type runRecord struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"load_average_1min"`
	Busy       bool    `json:"started_on_busy_box"`
	Start      string  `json:"start"`
	StreamHash string  `json:"op_stream_hash"`
	Network    string  `json:"network"`
	Loop       string  `json:"loop"`
}

func newRunRecord(o options, spec workloadSpec) runRecord {
	rec := runRecord{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Start: time.Now().UTC().Format(time.RFC3339),
		StreamHash: fmt.Sprintf("%016x", spec.hash(o.seed, streamHashOps)),
		Network:    "host loopback (tcp, unix socket, shm ring); no real link, no injected delay",
		Loop:       "closed loop, one driving goroutine, one op in flight",
	}
	if la, err := loadAverage(); err == nil {
		rec.LoadAvg1 = la
		rec.Busy = la > float64(rec.NProc)
	}
	return rec
}

// commit names the source the binary was built from: the VCS revision
// when the build saw one, else "unknown" (the acceptance checkout is
// not a git repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// streamHashOps is how many generated ops the run record's stream hash
// covers: same seed, same hash; another seed, another hash.
const streamHashOps = 4096

// metric is one named result. Q1/Q3 and N describe the samples Value is
// the median of (rounds, or set-ups); they are absent for a single
// reading.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is the line the run ends with.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]wireValue `json:"metrics"`
}

type wireValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(o options) int {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	spec, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cleanup, err := enterTempDir(outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	rec := newRunRecord(o, spec)
	fmt.Printf("# tdp bench: workload=%s seed=%d seconds=%g traced=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s load1=%.2f op_stream_hash=%s\n",
		rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.LoadAvg1, rec.StreamHash)
	fmt.Printf("# %s; %s\n", rec.Loop, rec.Network)
	if rec.Busy {
		fmt.Printf("# WARNING: 1-min load average %.2f exceeds nproc %d; timings of this run are suspect\n", rec.LoadAvg1, rec.NProc)
	}

	var rep *report
	if o.trace {
		rep, err = runTraced(o, spec)
	} else {
		rep, err = runEndToEnd(o, spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep.Run = rec
	rep.print(os.Stdout)
	if err := rep.write(outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// enterTempDir creates a directory of this run's own under dir and
// points TMPDIR at it, which is where the servers put their same-host
// sockets and shm segments. The returned func removes it; it also runs
// when the process is interrupted.
func enterTempDir(dir string) (cleanup func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp-"+strconv.Itoa(os.Getpid()))
	if err := os.Mkdir(tmp, 0o700); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()
	return func() { os.RemoveAll(tmp) }, nil
}

// report is everything one run measured.
type report struct {
	Run      runRecord          `json:"run"`
	Order    []string           `json:"-"` // metric names in print order
	Metrics  map[string]metric  `json:"metrics"`
	Rounds   []round            `json:"rounds,omitempty"`
	SetupS   []float64          `json:"setup_s_samples,omitempty"`
	RawSelf  map[string]float64 `json:"raw_self_us,omitempty"` // *.self_us before clamping at 0
	Failures []string           `json:"failures,omitempty"`

	attempted, failed int
	trace             *recorder // the traced run's spans, written beside the report
}

func (r *report) set(name string, m metric) {
	if _, ok := r.Metrics[name]; !ok {
		r.Order = append(r.Order, name)
	}
	r.Metrics[name] = m
}

func (r *report) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]wireValue{}}
	declared := endToEnd
	if r.Run.Traced {
		declared = perLayer
	}
	for _, d := range declared {
		m := r.Metrics[d.name]
		res.Metrics[d.name] = wireValue{Value: m.Value, Unit: m.Unit}
	}
	return res
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "%-34s %14s %-8s %14s %14s %6s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, name := range r.Order {
		m := r.Metrics[name]
		if m.N > 0 {
			fmt.Fprintf(w, "%-34s %14.4f %-8s %14.4f %14.4f %6d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		} else {
			fmt.Fprintf(w, "%-34s %14.4f %-8s\n", name, m.Value, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s: %s\n", r.Run.Workload, f)
	}
}

func (r *report) write(dir string) error {
	name := fmt.Sprintf("%s-seed%d.json", r.Run.Workload, r.Run.Seed)
	if r.Run.Traced {
		name = "perlayer-" + name
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.trace != nil {
		return r.trace.write(dir, r.Run)
	}
	return nil
}

// runEndToEnd is the untraced run. It sets the workload up sz.setups
// times, and gives each instance an equal share of the timed phase and
// its own end-of-run check: setup_s is the median over the set-ups, and
// the rounds behind every other metric come from independent daemons
// and connections rather than from one instance's luck.
func runEndToEnd(o options, spec workloadSpec) (*report, error) {
	sz := spec.sizing
	rep := &report{Metrics: map[string]metric{}}
	for i := 0; i < sz.setups; i++ {
		if err := runInstance(o, spec, rep); err != nil {
			return nil, err
		}
	}
	if len(rep.Rounds) == 0 {
		return nil, fmt.Errorf("%s: no op completed in %g s", o.workload, o.seconds)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	q1, med, q3 := quartiles(rep.SetupS)
	rep.set("setup_s", metric{Value: med, Unit: "s", Q1: q1, Q3: q3, N: len(rep.SetupS)})
	col := func(name, unit string, get func(round) float64) {
		vals := make([]float64, len(rep.Rounds))
		for i, r := range rep.Rounds {
			vals[i] = get(r)
		}
		q1, med, q3 := quartiles(vals)
		rep.set(name, metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(vals)})
	}
	col("op_p50_us", "us", func(r round) float64 { return r.P50us })
	col("op_p90_us", "us", func(r round) float64 { return r.P90us })
	col("op_p99_us", "us", func(r round) float64 { return r.P99us })
	col("ops_per_s", "1/s", func(r round) float64 { return r.OpsPerS })
	col("cpu_us_per_op", "us", func(r round) float64 { return r.CPUusPerOp })
	col("allocs_per_op", "count", func(r round) float64 { return r.AllocsPerOp })
	col("alloc_bytes_per_op", "B", func(r round) float64 { return r.AllocBPerOp })
	col("wire_bytes_per_op", "B", func(r round) float64 { return r.WireBPerOp })
	col("ops_per_round", "count", func(r round) float64 { return float64(r.Ops) })
	rep.set("rss_mb", metric{Value: rss, Unit: "MB"})
	rep.set("fail_ratio", metric{Value: float64(rep.failed) / math.Max(1, float64(rep.attempted)), Unit: "ratio"})
	return rep, nil
}

// runInstance sets one instance of the workload up, runs its share of
// the timed phase and its end-of-run checks, and folds what it measured
// into rep.
func runInstance(o options, spec workloadSpec, rep *report) error {
	sz := spec.sizing
	w := spec.new()
	defer w.close()
	start := time.Now()
	if err := w.setup(o.seed, sz); err != nil {
		return fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	share := float64(sz.rounds/sz.setups) / float64(sz.rounds)
	rounds := timedPhase(w, o.seconds*share, sz.rounds/sz.setups, nil)
	rep.Rounds = append(rep.Rounds, rounds...)
	for _, r := range rounds {
		rep.attempted += r.Ops
	}
	rep.attempted += w.finish()
	rep.failed += w.failures().count
	rep.Failures = append(rep.Failures, w.failures().msgs...)
	return nil
}
