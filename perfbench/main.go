// Command perfbench is the repository benchmark: three workloads, each
// driven through the public entry points of the layers it exercises, with
// every op's output checked outside the timed interval.
//
//	batch    one-machine decomposition: distributed coreness and weak
//	         densest subset on the worker-pool engine, then the orientation
//	cluster  one coordinated run on the socket cluster (4 workers, unix
//	         sockets, worker-to-worker stream mesh)
//	session  a hot 4-worker session absorbing a seeded churn stream, with
//	         three subscribers
//
// Load is one closed-loop caller: each op starts after the previous one
// and its check have finished. Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics, medians over the run:
//
//	setup_s      wall seconds of one set-up (graph generation, plus the
//	             session's Open and epoch-0 run)
//	op_wall_ms   wall time of one op
//	op_cpu_ms    CPU time of one op, every goroutine of the program included
//	alloc_mb     Go heap bytes allocated by one op
//	wire_mb      bytes one op moves between nodes or workers
//	retained_mb  live heap after a forced GC at the end of the run, with the
//	             benchmark's own data dropped first
//
// Both times are gated: CPU time shows work added anywhere in the program,
// wall time also shows lost parallelism and blocking waits.
//
// With --trace 1 the run ends with one more op on the traced seams and the
// object holds the per-layer metrics of layers.go instead.
//
// Earlier lines carry the report header (Go version, CPUs, seeds, non-test
// LOC per internal package) and every timed call as median, tail
// percentile and sample count, in wall and CPU time. The full report,
// error_rate included, and, when traced, the Chrome trace of every span
// are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workload  string
	seed      int64 // graph seed
	churnSeed int64 // churn stream seed (session)
	seconds   float64
	trace     bool
	n         int    // node count override for the self-test; 0 keeps the workload's size
	root      string // repository root, for the LOC header
	out       string // directory for reports and traces; "" writes none
	// corrupt perturbs one output value of every op before its check; the
	// self-test uses it to prove the checks can fail.
	corrupt bool
}

// outcome is what one op reports back to the runner.
type outcome struct {
	sample
	counts counts // exact program counters (traced ops)
	root   int    // root span of a traced op
	check  func() error
}

// sample is what the run keeps of a timed op once its check has passed.
type sample struct {
	cost         // of the op's timed calls
	wire  int64  // bytes the op moved between nodes or workers
	parts []part // named timed calls of the op
}

type part struct {
	name string
	cost
}

// workload is one benchmark workload. setup builds the inputs from the
// seeds and brings the program to the state ops start from (setup_s times
// it); prepare computes the references checks compare against (untimed);
// release drops the references and whatever else only the benchmark holds,
// so that the live heap left is the program's state and its input graph.
type workload interface {
	setup() error
	prepare() error
	op() (*outcome, error)
	tracedOp(rec *recorder) (*outcome, error)
	size() (nodes, edges, rounds int)
	release()
	close()
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "batch":
		return newBatch(cfg), nil
	case "cluster":
		return newCluster(cfg), nil
	case "session":
		return newSession(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want batch, cluster or session)", cfg.workload)
}

const (
	// setup_s is the median of at least setupReps set-ups, repeated for
	// setupSecs when one set-up is cheap.
	setupReps = 5
	setupSecs = 2.0
	minOps    = 3 // timed ops per run even when --seconds is short
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// timing is the distribution of one timed call over the run, in wall and
// in CPU milliseconds.
type timing struct {
	Name    string `json:"name"`
	Wall    stat   `json:"wall_ms"`
	CPU     stat   `json:"cpu_ms"`
	Samples int    `json:"samples"`
	// Every sample in run order, wall then CPU milliseconds.
	WallSamples []float64 `json:"wall_samples"`
	CPUSamples  []float64 `json:"cpu_samples"`
}

// stat is a median and the highest percentile with at least ten samples
// above it (absent below eleven samples).
type stat struct {
	Median  float64 `json:"median"`
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
}

// report is the full record of a run, written to --out.
type report struct {
	Header   header            `json:"header"`
	Timings  []timing          `json:"timings"`
	Errors   []string          `json:"errors,omitempty"`
	Result   result            `json:"result"`
	ErrRate  float64           `json:"error_rate"`
	Layers   []layerMetric     `json:"layer_map,omitempty"`
	Reconcil map[string]string `json:"reconciliation,omitempty"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "batch, cluster or session")
	flag.Int64Var(&cfg.seed, "seed", 1, "graph seed")
	churn := flag.Int64("churn-seed", -1, "churn stream seed (default: derived from --seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long the timed loop runs")
	tr := flag.Int("trace", 0, "1 = report the per-layer metrics of a traced op")
	flag.StringVar(&cfg.out, "out", "", "directory for the report and the trace")
	flag.Parse()
	cfg.trace = *tr != 0
	cfg.root = "."
	cfg.churnSeed = *churn
	if cfg.churnSeed < 0 {
		cfg.churnSeed = cfg.seed*1_000_003 + 17
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	enc, _ := json.Marshal(rep.Header)
	fmt.Printf("perfbench header %s\n", enc)
	for _, t := range rep.Timings {
		fmt.Printf("perfbench timing %-9s %3d samples  wall %s  cpu %s\n", t.Name, t.Samples, t.Wall, t.CPU)
	}
	if cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, *tr))
		full, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(full, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	enc, _ = json.Marshal(rep.Result)
	fmt.Println(string(enc))
}

// run executes one benchmark run: set-ups, references, warm-up, the timed
// closed loop and, with cfg.trace, one traced op.
func run(cfg config) (*report, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep := &report{Header: newHeader(cfg)}
	res := &rep.Result

	var setups []cost
	for t0 := time.Now(); len(setups) < setupReps || time.Since(t0).Seconds() < setupSecs; {
		var err error
		w.close()
		setups = append(setups, measure(func() { err = w.setup() }))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("references: %w", err)
	}
	rep.Header.Nodes, rep.Header.Edges, rep.Header.Rounds = w.size()

	// do runs one op and its check; a panic or a failed check is a failed
	// op. Failed ops contribute no samples.
	do := func(f func() (*outcome, error)) *outcome {
		res.Attempted++
		out, err := protect(f)
		if err == nil {
			err = protectErr(out.check)
		}
		if err != nil {
			res.Failed++
			if len(rep.Errors) < 10 {
				rep.Errors = append(rep.Errors, err.Error())
			}
			return nil
		}
		return out
	}

	// Warm-up, a tenth of the run and at least one op: caches, lazy
	// set-up, a fresh session's slow first epochs.
	start := time.Now()
	for k := 0; k < 1 || time.Since(start).Seconds() < cfg.seconds/10; k++ {
		do(w.op)
	}
	// Only the samples outlive an op: its outputs and its check go with it.
	var ops []sample
	start = time.Now()
	for k := 0; k < minOps || time.Since(start).Seconds() < cfg.seconds; k++ {
		if out := do(w.op); out != nil {
			ops = append(ops, out.sample)
		}
	}

	var opCost []cost
	var alloc, wire []float64
	parts := map[string][]cost{}
	var partOrder []string
	for _, o := range ops {
		opCost = append(opCost, o.cost)
		alloc = append(alloc, float64(o.alloc)/1e6)
		wire = append(wire, float64(o.wire)/1e6)
		for _, p := range o.parts {
			if _, ok := parts[p.name]; !ok {
				partOrder = append(partOrder, p.name)
			}
			parts[p.name] = append(parts[p.name], p.cost)
		}
	}
	setupT, opT := newTiming("setup", setups), newTiming("op", opCost)
	rep.Timings = append(rep.Timings, setupT, opT)
	for _, name := range partOrder {
		rep.Timings = append(rep.Timings, newTiming(name, parts[name]))
	}

	res.Metrics = map[string]metric{}
	if cfg.trace {
		rec := newRecorder()
		var sp split
		var vals map[string]float64
		out := do(func() (*outcome, error) {
			o, err := w.tracedOp(rec)
			if err != nil {
				rec.abandon()
				return nil, err
			}
			untraced := time.Duration(opT.Wall.Median * float64(time.Millisecond))
			vals, sp = rec.layerValues(o.root, o.counts, untraced)
			check := o.check
			o.check = func() error {
				if err := check(); err != nil {
					return err
				}
				return reconcile(rec, o.root, sp)
			}
			return o, nil
		})
		if out != nil {
			rep.Reconcil = describe(rec, sp)
			for _, m := range layerMetrics {
				res.Metrics[m.Name] = metric{vals[m.Name], m.Unit}
			}
		}
		rep.Layers = layerMetrics
		if cfg.out != "" {
			path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
			if err := rec.writeChrome(path); err != nil {
				return nil, err
			}
		}
	} else if len(ops) > 0 {
		res.Metrics["setup_s"] = metric{setupT.Wall.Median / 1e3, "s"}
		res.Metrics["op_wall_ms"] = metric{opT.Wall.Median, "ms"}
		res.Metrics["op_cpu_ms"] = metric{opT.CPU.Median, "ms"}
		res.Metrics["alloc_mb"] = metric{median(alloc), "MB/op"}
		res.Metrics["wire_mb"] = metric{median(wire), "MB/op"}
		w.release()
		runtime.GC()
		var msr runtime.MemStats
		runtime.ReadMemStats(&msr)
		res.Metrics["retained_mb"] = metric{float64(msr.HeapAlloc) / 1e6, "MB"}
	}
	res.Correct = res.Failed == 0 && len(ops) > 0
	rep.ErrRate = float64(res.Failed) / float64(res.Attempted)
	return rep, nil
}

// reconcile checks the layer split of traced op root against the spans it
// was made from. That the items sum to the traced wall holds by
// construction (attribute hands every instant of the root span to exactly
// one item), so the check is on what the split rests on: every program
// span of the op lies inside the op, up to the uncertainty of the tracer
// clock's offset, and no item is charged more time than the spans it
// stands for cover.
func reconcile(rec *recorder, root int, sp split) error {
	if s, ok := rec.stray(root); ok {
		return fmt.Errorf("trace: %s span of worker %d in round %d runs past its op", s.Phase, s.Worker, s.Round)
	}
	spans := rec.opSpans(root)
	for it, d := range sp.items {
		if c := rec.covered(it, spans); d > c {
			return fmt.Errorf("trace: %s %q is charged %v, its spans cover %v", rec.spans[it.stage].Name, it.phase, d, c)
		}
	}
	return nil
}

// describe renders the layer split of a traced op for the report.
func describe(rec *recorder, sp split) map[string]string {
	by := map[string]time.Duration{}
	for it, d := range sp.items {
		l := rec.layerOf(it)
		if l == "" {
			l = "unattributed"
		}
		by[l] += d
	}
	out := map[string]string{"traced_wall": fmt.Sprintf("%.3f ms", ms(sp.wall))}
	for l, d := range by {
		out[l] = fmt.Sprintf("%.3f ms (%.1f%%)", ms(d), 100*float64(d)/float64(sp.wall))
	}
	return out
}

// protect runs f, turning a panic into an error: the engines report
// transport and protocol failures by panicking.
func protect(f func() (*outcome, error)) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func protectErr(f func() error) error {
	_, err := protect(func() (*outcome, error) { return nil, f() })
	return err
}

// cost is what a measured call used: wall time, CPU time of the whole
// process (user plus system, every goroutine of the program included) and
// heap bytes allocated.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

// measure runs f from a freshly collected heap and returns its cost. The
// collection and the allocation reads stop the world, so they sit outside
// the measured interval.
func measure(f func()) cost {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	c0 := cpuTime()
	t := time.Now()
	f()
	wall := time.Since(t)
	c1 := cpuTime()
	runtime.ReadMemStats(&b)
	return cost{wall, c1 - c0, b.TotalAlloc - a.TotalAlloc}
}

// cpuTime is the process's CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter sums the cost of an op's timed calls.
type meter struct{ cost }

func (m *meter) time(f func()) cost {
	c := measure(f)
	m.wall += c.wall
	m.cpu += c.cpu
	m.alloc += c.alloc
	return c
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func newTiming(name string, cs []cost) timing {
	wall := make([]float64, len(cs))
	cpu := make([]float64, len(cs))
	for i, c := range cs {
		wall[i], cpu[i] = ms(c.wall), ms(c.cpu)
	}
	return timing{Name: name, Wall: newStat(wall), CPU: newStat(cpu), Samples: len(cs), WallSamples: wall, CPUSamples: cpu}
}

func newStat(xs []float64) stat {
	st := stat{Median: median(xs)}
	if k := len(xs); k > 10 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		st.Tail = s[k-11]
		st.TailPct = 100 * float64(k-10) / float64(k)
	}
	return st
}

func (s stat) String() string {
	if s.TailPct == 0 {
		return fmt.Sprintf("median %.3f ms", s.Median)
	}
	return fmt.Sprintf("median %.3f ms, p%.1f %.3f ms", s.Median, s.TailPct, s.Tail)
}
