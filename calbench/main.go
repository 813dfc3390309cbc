// Command calbench is the repository's end-to-end benchmark. One run is one
// process that builds one workload's state, drives the program in-process for
// a fixed number of seconds with a closed loop of client goroutines, checks
// every output against computations made here with Go's time package, and
// prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, taken from spans this benchmark records around the program's
// public entry points (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"calsys/internal/core/matcache"
)

func main() {
	workload := flag.String("workload", "", "serve-expand | serve-interactive | cron-durable | query-on")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		clients:  min(2, runtime.NumCPU()),
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown --workload %q", cfg.workload)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	cfg.outDir = filepath.Join(wd, ".bench_build")
	cfg.workDir, err = os.MkdirTemp(mustMkdir(cfg.outDir), "run-"+cfg.workload+"-")
	if err != nil {
		fatalf("%v", err)
	}
	res, err := run(cfg)
	os.RemoveAll(cfg.workDir)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	out, err := json.Marshal(res.finish(cfg))
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "calbench: "+format+"\n", args...)
	os.Exit(1)
}

// note prints a progress line on standard error.
func note(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "calbench: "+format+"\n", args...)
}

// notePhase summarizes a timed phase on standard error.
func notePhase(p *phase) {
	note("timed: %d ops in %v; matcache %d of %d bytes resident, %d evictions",
		p.ops(), p.wall.Round(time.Millisecond), p.mat.Bytes, p.mat.Budget, p.mat.Evictions)
	var rates []string
	for _, w := range p.windows {
		rates = append(rates, strconv.FormatFloat(w.rate(), 'f', 0, 64))
	}
	note("ops/s by one-second window: %v", rates)
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	return dir
}

var workloads = map[string]func(*config) (*result, error){
	"serve-expand":      func(c *config) (*result, error) { return runServe(c, false) },
	"serve-interactive": func(c *config) (*result, error) { return runServe(c, true) },
	"cron-durable":      runCron,
	"query-on":          runQuery,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	clients  int
	outDir   string // .bench_build in the checkout
	workDir  string // fresh per run, removed at exit
}

// A run builds its state several times and reports the median as setup_s;
// cheap builds repeat more, so the median is over enough of them to be
// steady (see timeSetup).
const (
	setupReps    = 5
	setupTime    = 2 * time.Second
	setupMaxReps = 25
)

// perLayer lists every per-layer metric; a workload that does not call a
// layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"vet.us_per_op", "us"},
	{"vet.alloc_kb_per_op", "KB"},
	{"recurrence.us_per_op", "us"},
	{"caldb.eval_us_per_op", "us"},
	{"caldb.eval_alloc_kb_per_op", "KB"},
	{"matcache.hit_ratio", "ratio"},
	{"matcache.lookups", "count"},
	{"matcache.evictions", "count"},
	{"matcache.flight_waits", "count"},
	{"plan.next_us_per_op", "us"},
	{"serve.encode_us_per_op", "us"},
	{"serve.resp_bytes_per_op", "B"},
	{"catalog.write_us_per_op", "us"},
	{"serve.residual_us_per_op", "us"},
	{"rules.define_s", "s"},
	{"rules.step_ms", "ms"},
	{"rules.change_step_ms", "ms"},
	{"journal.fsyncs_per_firing", "count"},
	{"journal.bytes_per_firing", "B"},
	{"postquel.on_us_per_op", "us"},
	{"postquel.scan_us_per_op", "us"},
	{"postquel.append_us_per_op", "us"},
	{"postquel.delete_us_per_op", "us"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_per_kop", "count"},
	{"disk.fsync_us", "us"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what a workload hands back: the outcome of its operations, the
// timed phase, and (traced runs) the per-layer figures.
type result struct {
	attempted, failed int
	violations        []string // workload-defining properties that did not hold
	setupS            float64
	timed             phase
	layers            map[string]float64
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 10 {
		fmt.Fprintf(os.Stderr, "calbench: FAIL "+format+"\n", args...)
	}
}

func (r *result) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.violations = append(r.violations, msg)
	fmt.Fprintf(os.Stderr, "calbench: PROPERTY %s\n", msg)
}

// minOps is the least number of timed operations a run must complete, so
// that p99 has ten samples beyond it.
const minOps = 1000

func (r *result) finish(cfg *config) output {
	if r.timed.ops() < minOps {
		r.violate("%d timed operations, want at least %d", r.timed.ops(), minOps)
	}
	out := output{
		Correct:   r.failed == 0 && len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	if !cfg.trace {
		p := &r.timed
		n := float64(p.ops())
		p50, p99 := p.segmentPercentiles()
		out.Metrics["setup_s"] = metric{r.setupS, "s"}
		rate, cpuPerOp := n/p.wall.Seconds(), ms(p.cpu)/n
		if len(p.windows) > 0 {
			rate, cpuPerOp = p.windowMedians()
		}
		out.Metrics["ops_per_s"] = metric{rate, "1/s"}
		out.Metrics["lat_p50_ms"] = metric{p50, "ms"}
		out.Metrics["lat_p99_ms"] = metric{p99, "ms"}
		out.Metrics["cpu_ms_per_op"] = metric{cpuPerOp, "ms"}
		out.Metrics["rss_mb"] = metric{p.peakRSSMB, "MB"}
	} else {
		for _, m := range perLayer {
			v := r.layers[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[m.name] = metric{v, m.unit}
		}
	}
	return out
}

// phase is one measured interval: per-operation latencies from each client,
// wall and CPU time, and runtime counters.
type phase struct {
	lats      [][]time.Duration // per client
	wall, cpu time.Duration
	allocB    uint64         // bytes allocated on the heap
	gcs       uint64         // completed GC cycles
	peakRSSMB float64        // resident set: 95th percentile of the phase's samples
	mat       matcache.Stats // counter deltas
	windows   []window       // one-second windows of the phase
}

// windowMedians are the phase's throughput and CPU per operation as medians
// over its one-second windows, so a burst of outside load that hits part of
// a run moves them less than whole-phase averages.
func (p *phase) windowMedians() (rate, cpuPerOp float64) {
	var rates, cpus []float64
	for _, w := range p.windows {
		rates = append(rates, w.rate())
		if w.ops > 0 {
			cpus = append(cpus, ms(w.cpu)/float64(w.ops))
		}
	}
	return median(rates), median(cpus)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// sample is one reading of the process.
type sample struct {
	at    time.Time
	ops   int
	cpu   time.Duration
	rssMB float64
}

// window is the difference of two samples windowSamples apart.
type window struct {
	dur, cpu time.Duration
	ops      int
}

func (w window) rate() float64 { return float64(w.ops) / w.dur.Seconds() }

// sampleEvery is the sampling period; a window is windowSamples periods.
const (
	sampleEvery   = 100 * time.Millisecond
	windowSamples = 10
)

// sampler reads the process's CPU time, resident set and completed
// operations every sampleEvery while a timed phase runs.
type sampler struct {
	ops     func() int
	stop    chan struct{}
	done    chan struct{}
	samples []sample
}

func startSampler(ops func() int) *sampler {
	s := &sampler{ops: ops, stop: make(chan struct{}), done: make(chan struct{})}
	s.samples = append(s.samples, s.read())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.samples = append(s.samples, s.read())
			}
		}
	}()
	return s
}

func (s *sampler) read() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return sample{at: time.Now(), ops: s.ops(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), rssMB: rssMB()}
}

// finish stops the sampler and returns the windows and the resident-set
// samples.
func (s *sampler) finish() (windows []window, rss []float64) {
	close(s.stop)
	<-s.done
	s.samples = append(s.samples, s.read())
	for _, x := range s.samples {
		rss = append(rss, x.rssMB)
	}
	for i := windowSamples; i < len(s.samples); i += windowSamples {
		a, b := s.samples[i-windowSamples], s.samples[i]
		windows = append(windows, window{dur: b.at.Sub(a.at), cpu: b.cpu - a.cpu, ops: b.ops - a.ops})
	}
	return windows, rss
}

// rssMB reads the resident set from /proc/self/statm (0 if unreadable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

func (p *phase) ops() int {
	n := 0
	for _, l := range p.lats {
		n += len(l)
	}
	return n
}

// segmentPercentiles cuts every client's timed operations into the same
// number of consecutive segments, about minOps operations each (at most 5,
// at least 1), takes p50 and p99 of each segment over all clients, and
// returns the medians over segments in ms. Each segment's p99 has ten
// samples beyond it, and a burst of outside load during one part of a run
// moves the result less than percentiles over the whole phase.
func (p *phase) segmentPercentiles() (p50, p99 float64) {
	segs := max(1, min(5, p.ops()/minOps))
	var s50, s99 []float64
	for k := 0; k < segs; k++ {
		var seg []time.Duration
		for _, l := range p.lats {
			seg = append(seg, l[k*len(l)/segs:(k+1)*len(l)/segs]...)
		}
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		s50 = append(s50, ms(percentile(seg, 50)))
		s99 = append(s99, ms(percentile(seg, 99)))
	}
	return median(s50), median(s99)
}

func (p *phase) meanLat() time.Duration {
	n := p.ops()
	if n == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range p.lats {
		for _, d := range l {
			sum += d
		}
	}
	return sum / time.Duration(n)
}

// probe is a snapshot of the process counters a phase is the difference of.
type probe struct {
	at     time.Time
	cpu    time.Duration
	allocB uint64
	gcs    uint64
	mat    matcache.Stats
	sm     *sampler
}

// startPhase collects garbage, hands freed memory back to the OS so the
// phase's resident set does not carry earlier set-up builds, and takes the
// phase's first probe; ops counts the phase's completed operations.
func startPhase(ops func() int) probe {
	debug.FreeOSMemory()
	p := takeProbe()
	p.sm = startSampler(ops)
	return p
}

func takeProbe() probe {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return probe{
		at:     time.Now(),
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocB: s[0].Value.Uint64(),
		gcs:    s[1].Value.Uint64(),
		mat:    matcache.Shared().Stats(),
	}
}

// endPhase fills p's counters from the difference of two probes.
func endPhase(p *phase, start probe) {
	end := takeProbe()
	p.wall = end.at.Sub(start.at)
	p.cpu = end.cpu - start.cpu
	p.allocB = end.allocB - start.allocB
	p.gcs = end.gcs - start.gcs
	p.mat = matDelta(end.mat, start.mat)
	windows, rss := start.sm.finish()
	p.windows = windows
	// The peak is the 95th percentile of the samples: a GC cycle's brief
	// spike, which one sample in twenty may catch, does not set it.
	sort.Float64s(rss)
	p.peakRSSMB = rss[(len(rss)*95+99)/100-1]
}

func matDelta(a, b matcache.Stats) matcache.Stats {
	return matcache.Stats{
		Hits:        a.Hits - b.Hits,
		Misses:      a.Misses - b.Misses,
		Puts:        a.Puts - b.Puts,
		Evictions:   a.Evictions - b.Evictions,
		FlightWaits: a.FlightWaits - b.FlightWaits,
		Bytes:       a.Bytes,
		Budget:      a.Budget,
	}
}

// goLayers adds the runtime and cache figures of the timed phase.
func goLayers(l map[string]float64, p *phase) {
	n := float64(p.ops())
	l["go.alloc_kb_per_op"] = float64(p.allocB) / 1024 / n
	l["go.gc_per_kop"] = float64(p.gcs) * 1000 / n
	look := p.mat.Hits + p.mat.Misses
	l["matcache.lookups"] = float64(look)
	if look > 0 {
		l["matcache.hit_ratio"] = float64(p.mat.Hits) / float64(look)
	}
	l["matcache.evictions"] = float64(p.mat.Evictions)
	l["matcache.flight_waits"] = float64(p.mat.FlightWaits)
}

// timeSetup builds a workload's state at least setupReps times, and until
// the builds have taken setupTime (at most setupMaxReps builds), and returns
// the median build time and the last build; discard, if set, releases each
// earlier build. The shared materialization cache is emptied before each
// build so every build starts from the same state.
func timeSetup[T any](build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	var total time.Duration
	for i := 0; i < setupMaxReps && (i < setupReps || total < setupTime); i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		matcache.Shared().Reset()
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		took := time.Since(t0)
		total += took
		times = append(times, took.Seconds())
		last = v
	}
	sort.Float64s(times)
	return last, times[len(times)/2], nil
}

// fsyncMicros times write+fsync of a small file in dir: the device cost a
// durable journal ack pays. It returns the median of 64 tries.
func fsyncMicros(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var ts []float64
	line := []byte("A 1234567\n")
	for i := 0; i < 64; i++ {
		t0 := time.Now()
		if _, err := f.Write(line); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(ts)
	return ts[len(ts)/2], nil
}

// percentile is the nearest-rank p-th percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	rank = max(0, min(rank, len(sorted)-1))
	return sorted[rank]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedDone reports the end of a timed phase: the run length has passed and
// at least minOps operations have completed, or six run lengths have passed.
func timedDone(start time.Time, length time.Duration, ops func() int) func(int) bool {
	return func(int) bool {
		el := time.Since(start)
		return el >= length && ops() >= minOps || el >= 6*length
	}
}

// runClients runs one closed-loop client per index: each client calls round
// repeatedly and stops between rounds once done reports true, so every run
// attempts whole rounds.
func runClients(n int, done func(c int) bool, round func(c int) error) error {
	errs := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			for !done(c) {
				if err := round(c); err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < n; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}
