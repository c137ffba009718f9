// Command bench runs the substrate and engine benchmarks that track the
// ROADMAP performance trajectory and writes the results as JSON. CI runs it
// on every push and uploads the file as an artifact (BENCH_PR10.json), so
// the repo accumulates comparable data points over time.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_PR10.json -label post-stream-mesh
//	go run ./cmd/bench -against BENCH_PR8.json -out BENCH_PR10.json
//	go run ./cmd/bench -trace bench-trace.json
//
// The benchmark set mirrors BenchmarkEngines (all four execution engines on
// the same BarabasiAlbert coreness run — the net rows measure the wire
// protocol, worker↔worker mesh included, over in-memory pipes and over real
// unix sockets, and the pipe rows' per-worker wire totals land in the row's
// stream_wire summary), the prod-scale
// rows (PR 8: seq vs the worker pool vs the 4-shard cluster on one
// BarabasiAlbert coreness run at -prodn nodes, 10⁶ by default — the scale
// the worker-pool rewrite is for; 0 disables them), the substrate
// micro-benchmarks (graph build, delivery loop) that the CSR/arena refactor
// targets, the churn rows — what one churn event costs as a fresh
// recompute, as an incremental dynamic.Maintainer repair, and as a churned
// (delta + rebalance) sharded cluster run — and the session rows: one
// steady-state delta epoch through a hot 4-worker session (connections,
// partitions and oracles all warm), the PR 6 path that replaces the PR 5
// churn-then-rerun cycle. With -against, a previous report is embedded as
// "baseline" and per-benchmark speedups are printed and recorded.
//
// Rows with a tracing seam also carry a "phases" breakdown (PR 7): after
// the timed (untraced) iterations, the same workload runs once more on an
// internal/obs tracer and the per-phase micros/bytes/span totals of that
// run are recorded on the row. The timed numbers are never contaminated —
// attribution is a separate run — and the bytes columns are deterministic,
// so the report says *where* an engine's wire bytes and wall time go (the
// net rows split a round into send, recv, barrier waits and the
// coordinator's verify; the session rows split an epoch into repair,
// rebalance and publish). -trace additionally exports
// the whole attribution pass — every engine plus the session epochs, one
// clock — as Chrome trace-event JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/dynamic"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/obs"
	"distkcore/internal/session"
	"distkcore/internal/shard"
)

// Result is one benchmark row (ns/op, B/op, allocs/op as in `go test -bench`).
// Phases, when present, is the per-phase breakdown of one traced run of the
// same workload (obs.PhaseTotal keys, shared with cmd/cluster's report).
type Result struct {
	Name     string           `json:"name"`
	Iters    int              `json:"iterations"`
	NsPerOp  float64          `json:"ns_op"`
	BytesOp  int64            `json:"b_op"`
	AllocsOp int64            `json:"allocs_op"`
	Phases   []obs.PhaseTotal `json:"phases,omitempty"`
	Wire     *StreamWireRow   `json:"stream_wire,omitempty"`
}

// StreamWireRow summarizes a net row's data-plane load (PR 10): how
// many bytes the busiest worker put on mesh links, the cluster total, and
// how much of it was hypercube relay on behalf of third parties. The
// numbers are deterministic, so they are comparable across reports — the
// max_worker_bytes column is the one the funnel-shrink gate against the
// retired coordinator relay (BENCH_PR7) rides on.
type StreamWireRow struct {
	MaxWorkerBytes int64 `json:"max_worker_bytes"`
	TotalBytes     int64 `json:"total_bytes"`
	RelayedBytes   int64 `json:"relayed_bytes"`
	Chunks         int64 `json:"chunks"`
}

// Report is the file cmd/bench writes. Baseline, when present, is an earlier
// Report to compare against (the pre-refactor numbers for PR 3).
type Report struct {
	Label     string             `json:"label"`
	Go        string             `json:"go"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	CPUs      int                `json:"cpus"`
	Nodes     int                `json:"nodes"`
	Rounds    int                `json:"rounds"`
	ProdNodes int                `json:"prod_nodes,omitempty"` // node count of the prod/* rows (0 = rows disabled)
	Results   []Result           `json:"results"`
	Baseline  *Report            `json:"baseline,omitempty"`
	SpeedupNs map[string]float64 `json:"speedup_ns,omitempty"`   // baseline ns/op ÷ current
	AllocsCut map[string]float64 `json:"allocs_ratio,omitempty"` // baseline allocs/op ÷ current
}

// flood is a deliver-heavy protocol: every node broadcasts every round, so
// the benchmark is dominated by the runtime's mailbox machinery rather than
// algorithm work. It is the cmd-level twin of dist's BenchmarkDeliver.
type flood struct{ rounds int }

func (f *flood) Init(c *dist.Ctx) { c.Broadcast(dist.Message{F0: 1}) }
func (f *flood) Round(c *dist.Ctx, inbox []dist.Message) {
	if c.Round() >= f.rounds {
		c.Halt()
		return
	}
	s := 0.0
	for _, m := range inbox {
		s += m.F0
	}
	c.Broadcast(dist.Message{F0: s})
}

func main() {
	var (
		out      = flag.String("out", "BENCH_PR10.json", "output JSON path ('-' for stdout)")
		label    = flag.String("label", "current", "label recorded in the report")
		n        = flag.Int("n", 10_000, "BarabasiAlbert node count for the engine workload")
		prodn    = flag.Int("prodn", 1_000_000, "BarabasiAlbert node count for the prod-scale rows (0 disables)")
		against  = flag.String("against", "", "previous report to embed as baseline")
		traceOut = flag.String("trace", "", cliutil.TraceUsage)
	)
	flag.Parse()

	g := graph.BarabasiAlbert(*n, 4, 7)
	T := core.TForEpsilon(*n, 0.5)
	rep := Report{
		Label:  *label,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Nodes:  *n,
		Rounds: T,
	}
	// One tracer spans every attribution run, so -trace exports the whole
	// pass (all engines, then the session epochs) on a single clock; each
	// row's phase totals are the delta over its own attribution run.
	tr := obs.NewTracer()

	// The net rows carry round traffic worker↔worker over the mesh. net4
	// runs the full mesh (over pipes and over unix sockets); net16 sits at
	// the default threshold and so exercises hypercube relay.
	net4 := dnet.NewEngine(4, shard.Greedy{})
	unixNet := dnet.NewEngine(4, shard.Greedy{})
	unixNet.Transport = dnet.TransportUnix
	net16 := dnet.NewEngine(16, shard.Hash{})
	engines := []struct {
		name string
		eng  dist.Engine
	}{
		{"engines/seq", dist.SeqEngine{}},
		{"engines/par", dist.ParEngine{}},
		{"engines/shard4-greedy", shard.NewEngine(4, shard.Greedy{})},
		{"engines/shard16-hash", shard.NewEngine(16, shard.Hash{})},
		{"engines/net4-greedy-pipe", net4},
		{"engines/net4-greedy-unix", unixNet},
		{"engines/net16-hash-stream", net16},
	}
	for _, c := range engines {
		c := c
		rep.add(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RunDistributed(g, core.Options{Rounds: T}, c.eng)
			}
		})
		rep.attrib(c.name, tr, func() {
			core.RunDistributed(g, core.Options{Rounds: T}, cliutil.Traced(c.eng, tr))
		})
	}
	rep.wire("engines/net4-greedy-pipe", net4)
	rep.wire("engines/net16-hash-stream", net16)

	// Prod-scale rows (PR 8): the workload the worker-pool rewrite exists
	// for — one coreness run at -prodn nodes on the three engines a single
	// machine would actually choose between. Only the parallel row gets a
	// phase attribution pass (each traced run is another minute-plus at
	// 10⁶ nodes); the step/deliver split is what the pool changes.
	if *prodn > 0 {
		pg := graph.BarabasiAlbert(*prodn, 4, 7)
		pT := core.TForEpsilon(*prodn, 0.5)
		rep.ProdNodes = *prodn
		for _, c := range []struct {
			name string
			eng  dist.Engine
		}{
			{"prod/seq", dist.SeqEngine{}},
			{"prod/par", dist.ParEngine{}},
			{"prod/shard4-greedy", shard.NewEngine(4, shard.Greedy{})},
		} {
			c := c
			rep.add(c.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.RunDistributed(pg, core.Options{Rounds: pT}, c.eng)
				}
			})
		}
		rep.attrib("prod/par", tr, func() {
			core.RunDistributed(pg, core.Options{Rounds: pT}, cliutil.Traced(dist.ParEngine{}, tr))
		})
	}

	edges := g.Edges()
	rep.add("graph/build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bld := graph.NewBuilder(*n)
			for _, e := range edges {
				bld.AddEdge(e.U, e.V, e.W)
			}
			bld.Build()
		}
	})

	fg := graph.BarabasiAlbert(2_000, 4, 7)
	rep.add("dist/deliver-flood", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.SeqEngine{}.Run(fg, func(graph.NodeID) dist.Program { return &flood{rounds: 20} }, 25)
		}
	})
	rep.attrib("dist/deliver-flood", tr, func() {
		dist.SeqEngine{Trace: tr}.Run(fg, func(graph.NodeID) dist.Program { return &flood{rounds: 20} }, 25)
	})

	// Churn trajectory (PR 5): the three ways to absorb one edge change.
	// fresh-recompute is the no-maintenance baseline — rebuild β from
	// scratch on the mutated graph; incremental-maintainer repairs only the
	// change frontier (one insert + one delete per op, so state is restored
	// every iteration and the numbers stay comparable run to run);
	// rebalanced-cluster absorbs a 512-op delta batch through the sharded
	// engine's wire codec + incremental rebalance and then runs the full
	// protocol — compare against engines/shard4-greedy for the churn
	// overhead on top of a steady-state run.
	delta := dist.RandomChurn(g, 512, 99)
	mutated, err := delta.Apply(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.add("churn/fresh-recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Run(mutated, core.Options{Rounds: T})
		}
	})
	mnt := dynamic.New(g, T)
	rep.add("churn/incremental-maintainer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u, v := i%*n, int(uint(i)*2654435761)%*n
			mnt.InsertEdge(u, v, 1)
			mnt.DeleteEdge(u, v)
		}
	})
	rep.add("churn/rebalanced-cluster", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := shard.NewEngine(4, shard.Greedy{})
			eng.Churn(delta, 0)
			core.RunDistributed(g, core.Options{Rounds: T}, eng)
		}
	})
	rep.attrib("churn/rebalanced-cluster", tr, func() {
		eng := shard.NewEngine(4, shard.Greedy{})
		eng.SetTracer(tr)
		eng.Churn(delta, 0)
		core.RunDistributed(g, core.Options{Rounds: T}, eng)
	})

	// Session steady state (PR 6): one delta epoch through a hot 4-worker
	// session — the cluster is opened once outside the timer; each
	// iteration streams a batch to the live workers, which repair
	// incrementally and re-seal the digest chain. Two batch sizes bracket
	// the story against churn/rebalanced-cluster (absorb + full re-run per
	// batch): at 32 ops — the steady drip sessions exist for — the epoch
	// is far cheaper than any full run; at 512 ops the P redundant oracles
	// each replay 512 sequential repairs and the full run wins, which is
	// the honest crossover (big rare batches belong on the PR 5 path).
	sess, err := session.Open(g, session.Options{P: 4, Rounds: T, Part: shard.Greedy{}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer sess.Close()
	cur, epoch := g, 0
	for _, ops := range []int{32, 512} {
		ops := ops
		rep.add(fmt.Sprintf("session/epoch-%dops", ops), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				epoch++
				d := dist.RandomChurn(cur, ops, int64(epoch))
				if _, err := sess.Push(d, 0); err != nil {
					fmt.Fprintln(os.Stderr, "bench: session push:", err)
					os.Exit(1)
				}
				if cur, err = d.Apply(cur); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
			}
		})
	}

	// Phase attribution for the session rows runs on a second, traced
	// session (the timed one stays untraced): one epoch per batch size,
	// split into repair / rebalance / publish / epoch spans.
	tsess, err := session.Open(g, session.Options{P: 4, Rounds: T, Part: shard.Greedy{}, Trace: tr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	tcur := g
	for _, ops := range []int{32, 512} {
		ops := ops
		rep.attrib(fmt.Sprintf("session/epoch-%dops", ops), tr, func() {
			d := dist.RandomChurn(tcur, ops, int64(1000+ops))
			if _, err := tsess.Push(d, 0); err != nil {
				fmt.Fprintln(os.Stderr, "bench: session push:", err)
				os.Exit(1)
			}
			if tcur, err = d.Apply(tcur); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		})
	}
	tsess.Close()

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		base := new(Report)
		if err := json.Unmarshal(raw, base); err != nil {
			fmt.Fprintln(os.Stderr, "bench: parse baseline:", err)
			os.Exit(1)
		}
		base.Baseline = nil // never nest more than one level
		rep.Baseline = base
		rep.SpeedupNs = map[string]float64{}
		rep.AllocsCut = map[string]float64{}
		for _, br := range base.Results {
			for _, cr := range rep.Results {
				if cr.Name != br.Name {
					continue
				}
				if cr.NsPerOp != 0 {
					rep.SpeedupNs[cr.Name] = br.NsPerOp / cr.NsPerOp
				}
				if cr.AllocsOp != 0 {
					rep.AllocsCut[cr.Name] = float64(br.AllocsOp) / float64(cr.AllocsOp)
				}
				fmt.Fprintf(os.Stderr, "%-24s ns/op ×%.2f   allocs/op ×%.2f\n",
					cr.Name, rep.SpeedupNs[cr.Name], rep.AllocsCut[cr.Name])
			}
		}
	}

	if err := cliutil.WriteTrace(*traceOut, tr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := obs.WriteReportFile(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintln(os.Stderr, "bench: wrote", *out)
	}
}

// add runs one benchmark with allocation reporting and records the row.
func (r *Report) add(name string, f func(*testing.B)) {
	fmt.Fprintf(os.Stderr, "bench: running %s...\n", name)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	r.Results = append(r.Results, Result{
		Name:     name,
		Iters:    res.N,
		NsPerOp:  float64(res.T.Nanoseconds()) / float64(res.N),
		BytesOp:  res.AllocedBytesPerOp(),
		AllocsOp: res.AllocsPerOp(),
	})
}

// wire attaches the deterministic per-worker wire summary of eng's last
// run to the named row.
func (r *Report) wire(name string, eng *dnet.Engine) {
	var s StreamWireRow
	for _, w := range eng.StreamWire() {
		v := w.Sent + w.Relayed
		s.TotalBytes += v
		s.RelayedBytes += w.Relayed
		s.Chunks += w.Chunks
		if v > s.MaxWorkerBytes {
			s.MaxWorkerBytes = v
		}
	}
	for i := range r.Results {
		if r.Results[i].Name == name {
			r.Results[i].Wire = &s
			return
		}
	}
}

// attrib runs one traced pass of a row's workload and attaches the phase
// totals that pass added to tr to the row with the given name. tr is shared
// across every attribution call (so -trace can export one merged timeline);
// the per-row breakdown is the before/after delta.
func (r *Report) attrib(name string, tr *obs.Tracer, run func()) {
	before := tr.Trace().PhaseTotals()
	run()
	after := tr.Trace().PhaseTotals()
	d := phaseDelta(before, after)
	for i := range r.Results {
		if r.Results[i].Name == name {
			r.Results[i].Phases = d
			return
		}
	}
}

// phaseDelta subtracts the before totals from the after totals per phase,
// keeping after's (canonical) phase order and dropping phases that saw no
// new spans.
func phaseDelta(before, after []obs.PhaseTotal) []obs.PhaseTotal {
	prev := make(map[string]obs.PhaseTotal, len(before))
	for _, p := range before {
		prev[p.Phase] = p
	}
	var out []obs.PhaseTotal
	for _, p := range after {
		b := prev[p.Phase]
		p.Micros -= b.Micros
		p.Bytes -= b.Bytes
		p.Count -= b.Count
		p.Spans -= b.Spans
		if p.Spans > 0 {
			out = append(out, p)
		}
	}
	return out
}
