package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"distkcore/internal/densest"
	"distkcore/internal/exact"
	"distkcore/internal/obs"
)

// toyNodes is the self-test's graph size: every workload runs end to end in
// well under a second per op.
const toyNodes = 2000

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func toy(workload string, trace bool) config {
	return config{workload: workload, seed: 3, churnSeed: 11, trace: trace, n: toyNodes, root: ".."}
}

// TestWorkloadsReportEveryMetric runs each declared workload once untraced
// and once traced and checks that every declared metric comes back with
// its unit and that no op failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) == 0 || len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads or metrics")
	}
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(toy(wl.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			res := rep.Result
			if !res.Correct || res.Failed != 0 || rep.ErrRate != 0 || res.Attempted < minOps {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, rep.Errors)
			}
			want := map[string]string{}
			if trace {
				for _, m := range b.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range b.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", wl.Name, trace, name, m, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", wl.Name, name, m.Value)
				}
			}
			if trace && res.Metrics["obs.traced_wall_ms"].Value <= 0 {
				t.Errorf("%s: traced op has no wall time", wl.Name)
			}
		}
	}
}

// TestLayerMapMatchesBenchmark keeps the per-layer table the report prints
// (with what each metric should move) in step with BENCHMARK.json.
func TestLayerMapMatchesBenchmark(t *testing.T) {
	b := readBenchmark(t)
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the layer map has %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		l := layerMetrics[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, layer map %+v", i, m, l)
		}
	}
}

// TestWeakDensestGuarantee checks Theorem I.3 on the batch workload's own
// output: the best subset of the weak densest run is within γ of the exact
// maximum density. Exact densest subset is too slow for the timed sizes,
// so this runs only here.
func TestWeakDensestGuarantee(t *testing.T) {
	b := newBatch(toy("batch", false))
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	if err := b.prepare(); err != nil {
		t.Fatal(err)
	}
	o, _ := b.timed()
	if err := b.check(o); err != nil {
		t.Fatal(err)
	}
	rho := exact.Densest(b.g).Rho
	if !densest.GuaranteeHolds(o.weak, b.gamma, rho) {
		t.Fatalf("best weak subset density %v < ρ*/γ = %v/%v", o.weak.Best().Density, rho, b.gamma)
	}
}

// TestCorruptedValueIsCounted proves the checks can fail: with one output
// value perturbed in every op, every workload reports failed ops and a
// nonzero error rate.
func TestCorruptedValueIsCounted(t *testing.T) {
	for _, wl := range readBenchmark(t).Workloads {
		cfg := toy(wl.Name, false)
		cfg.corrupt = true
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if rep.Result.Correct || rep.Result.Failed == 0 || rep.ErrRate == 0 {
			t.Fatalf("%s: corrupted outputs passed: correct=%v failed=%d error_rate=%v",
				wl.Name, rep.Result.Correct, rep.Result.Failed, rep.ErrRate)
		}
	}
}

// TestReconcileCanFail proves the traced run's reconciliation can fail: it
// rejects a split that charges an item more than its spans cover, though
// the items still sum to the wall, and a program span that outlives its op.
func TestReconcileCanFail(t *testing.T) {
	rec := newRecorder()
	root := rec.beginOp(0)
	rec.call("core.Run", "core", "", func() {
		s := rec.tr.Begin(obs.PhaseStep, 0, 0)
		time.Sleep(2 * time.Millisecond)
		s.End()
	})
	time.Sleep(2 * time.Millisecond)
	rec.endOp(root)
	sp := rec.attribute(root, rec.opSpans(root))
	if err := reconcile(rec, root, sp); err != nil {
		t.Fatalf("sound split rejected: %v", err)
	}
	self, step := item{root, ""}, item{root + 1, "step"}
	sp.items[step] += sp.items[self]
	sp.items[self] = 0
	if err := reconcile(rec, root, sp); err == nil {
		t.Fatal("a split charging the step phase with the op's own time passed")
	}

	root = rec.beginOp(1)
	late := rec.tr.Begin(obs.PhaseStep, 0, 0)
	rec.endOp(root)
	time.Sleep(time.Millisecond)
	late.End()
	if err := reconcile(rec, root, rec.attribute(root, rec.opSpans(root))); err == nil {
		t.Fatal("a program span running past its op passed")
	}
}
