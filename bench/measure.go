package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tdp/internal/telemetry"
)

// workload is one named traffic mix: it owns its daemons, its clients,
// its seeded op stream and the model its results are checked against.
type workload interface {
	// setup starts the daemons, connects, preloads and runs the fixed
	// warm-up of the same op stream.
	setup(seed uint64, sz sizing) error
	// step performs the next op of the stream and checks its result;
	// false means the op failed or returned a wrong value.
	step() bool
	// finish runs the end-of-run checks against the model and returns
	// how many it made; what they found goes to failures().
	finish() (checked int)
	// registries lists every telemetry registry of the run: one per
	// daemon and one per client, so a message counts once per hop.
	registries() []*telemetry.Registry
	failures() *failureLog
	close()
}

// sizing holds what is fixed per run rather than derived from -seconds.
// The smoke test shrinks it.
type sizing struct {
	warm   time.Duration // warm-up of the op stream in every set-up, so setup_s >= 1 s
	setups int           // set-ups per run; setup_s is their median
	rounds int           // rounds the timed phase is cut into
}

// The warm-up is bound by time, not by an op count: a count makes
// setup_s nine parts op speed to one part set-up work — it read 1.0 to
// 2.1 s for global_read as the box's mood moved the mean op time — and
// would credit a faster op to set-up. With a fixed second of warm-up
// setup_s moves only with the work set-up itself does.
var fullSize = sizing{warm: time.Second, setups: 3, rounds: 30}

// workloadSpec is one row of the registry below; adding a workload is
// adding a row (and its line in BENCHMARK.json and README.md).
type workloadSpec struct {
	name   string
	new    func() workload
	sizing sizing
	// hash folds the first n generated ops of a seed's stream.
	hash func(seed uint64, n int) uint64
}

var registry = []workloadSpec{
	{"launch", func() workload { return &launchWorkload{} }, fullSize, launchStreamHash},
	{"local_ops", func() workload { return &localWorkload{} }, fullSize, localStreamHash},
	{"global_read", func() workload { return &globalReadWorkload{} }, fullSize, globalReadStreamHash},
	{"global_write", func() workload { return &globalWriteWorkload{} }, fullSize, globalWriteStreamHash},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, spec := range registry {
		if spec.name == name {
			return spec, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(registry))
	for i, spec := range registry {
		names[i] = spec.name
	}
	return names
}

// warmUp runs the op stream for d, and at least one op of it.
func warmUp(w workload, d time.Duration) error {
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if !w.step() {
			return fmt.Errorf("warm-up op %d failed: %s", i, w.failures().first())
		}
	}
	return nil
}

// failureLog counts failed or wrong-valued ops and keeps the first few
// for the report.
type failureLog struct {
	count int
	msgs  []string
}

// add records one failure and returns false, so a step can return it.
func (f *failureLog) add(format string, args ...any) bool {
	f.count++
	if len(f.msgs) < 10 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
	return false
}

func (f *failureLog) first() string {
	if len(f.msgs) == 0 {
		return "no failure recorded"
	}
	return f.msgs[0]
}

// usage is a reading of every process-wide meter a round is charged
// with. Two readings bracket a round.
type usage struct {
	at      time.Time
	cpu     time.Duration // user+sys of the whole process: client and daemons
	mallocs uint64
	bytes   uint64
	wire    int64
}

// meters reads usage. It holds the tx counters of every registry so a
// reading does not take the registries' locks.
type meters struct {
	tx []*telemetry.Counter
	ms runtime.MemStats
}

func newMeters(regs []*telemetry.Registry) *meters {
	m := &meters{}
	for _, r := range regs {
		m.tx = append(m.tx, r.Counter("wire.tx.bytes"))
	}
	return m
}

// processCPU is user+sys time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meters) read() usage {
	runtime.ReadMemStats(&m.ms)
	u := usage{
		cpu:     processCPU(),
		mallocs: m.ms.Mallocs,
		bytes:   m.ms.TotalAlloc,
	}
	for _, c := range m.tx {
		u.wire += c.Value()
	}
	u.at = time.Now()
	return u
}

// round is what one round of the timed phase measured.
type round struct {
	Ops         int     `json:"ops"`
	P50us       float64 `json:"op_p50_us"`
	P90us       float64 `json:"op_p90_us"`
	P99us       float64 `json:"op_p99_us"`
	OpsPerS     float64 `json:"ops_per_s"`
	CPUusPerOp  float64 `json:"cpu_us_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	AllocBPerOp float64 `json:"alloc_bytes_per_op"`
	WireBPerOp  float64 `json:"wire_bytes_per_op"`
}

// timedPhase runs w closed-loop from this goroutine for seconds, cut
// into rounds of equal length, and returns what each round measured.
// An op that starts inside a round belongs to it. observe, when not
// nil, brackets every op (the traced run's span recorder).
func timedPhase(w workload, seconds float64, rounds int, observe func(op int64, start time.Time, d time.Duration)) []round {
	m := newMeters(w.registries())
	lat := make([]int32, 0, 1<<18)
	out := make([]round, 0, rounds)
	per := time.Duration(seconds * float64(time.Second) / float64(rounds))
	var opID int64
	runtime.GC()
	for r := 0; r < rounds; r++ {
		lat = lat[:0]
		before := m.read()
		deadline := before.at.Add(per)
		for {
			t0 := time.Now()
			if !t0.Before(deadline) {
				break
			}
			w.step() // a failed op is counted in w.failures()
			d := time.Since(t0)
			if observe != nil {
				observe(opID, t0, d)
			}
			opID++
			lat = append(lat, int32(min(d, 1<<31-1)))
		}
		after := m.read()
		n := float64(len(lat))
		if n == 0 {
			continue // a round shorter than one op; the smoke test can get here
		}
		slices.Sort(lat)
		out = append(out, round{
			Ops:         len(lat),
			P50us:       percentileUS(lat, 0.50),
			P90us:       percentileUS(lat, 0.90),
			P99us:       percentileUS(lat, 0.99),
			OpsPerS:     n / after.at.Sub(before.at).Seconds(),
			CPUusPerOp:  float64((after.cpu - before.cpu).Microseconds()) / n,
			AllocsPerOp: float64(after.mallocs-before.mallocs) / n,
			AllocBPerOp: float64(after.bytes-before.bytes) / n,
			WireBPerOp:  float64(after.wire-before.wire) / n,
		})
	}
	return out
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// loadAverage returns the 1-minute load average.
func loadAverage() (float64, error) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0, fmt.Errorf("empty /proc/loadavg")
	}
	return strconv.ParseFloat(fields[0], 64)
}
