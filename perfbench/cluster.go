package main

import (
	"fmt"
	"runtime"

	"distkcore/internal/cliutil"
	"distkcore/internal/core"
	"distkcore/internal/dist"
	"distkcore/internal/graph"
	dnet "distkcore/internal/net"
	"distkcore/internal/shard"
)

const clusterWorkers = 4

// cluster is one coordinated run on the socket cluster: dial, handshake,
// T rounds over the worker-to-worker stream mesh, digest-matrix verify,
// values back. The working set fits in cache, so encode, send, credit
// stalls, barrier waits and verify dominate.
type cluster struct {
	cfg config
	n   int
	T   int
	g   *graph.Graph

	ref    []float64 // sequential reference values
	refMet dist.Metrics
}

type clusterOut struct {
	b   []float64
	met dist.Metrics
}

func newCluster(cfg config) *cluster {
	n := 20_000
	if cfg.n > 0 {
		n = cfg.n
	}
	return &cluster{cfg: cfg, n: n, T: core.TForEpsilon(n, eps)}
}

func (c *cluster) size() (int, int, int) { return c.n, c.g.M(), c.T }

func (c *cluster) setup() error {
	c.g = graph.BarabasiAlbert(c.n, 4, c.cfg.seed)
	return nil
}

func (c *cluster) prepare() error {
	res, met := core.RunDistributed(c.g, core.Options{Rounds: c.T}, dist.SeqEngine{})
	c.ref, c.refMet = res.B, met
	return nil
}

// engine is net:4:greedy:unix:stream.
func (c *cluster) engine() *dnet.Engine {
	eng := dnet.NewEngine(clusterWorkers, shard.Greedy{})
	eng.Transport = dnet.TransportUnix
	eng.Stream = true
	return eng
}

func (c *cluster) op() (*outcome, error) {
	o, s := c.timed()
	return &outcome{sample: s, check: func() error { return c.check(o) }}, nil
}

// timed makes one timed coordinated run.
func (c *cluster) timed() (clusterOut, sample) {
	var m meter
	var o clusterOut
	eng := c.engine()
	m.time(func() {
		res, met := core.RunDistributed(c.g, core.Options{Rounds: c.T}, eng)
		o.b, o.met = res.B, met
	})
	c.corrupt(&o)
	return o, sample{cost: m.cost, wire: meshBytes(eng)}
}

func (c *cluster) corrupt(o *clusterOut) {
	if c.cfg.corrupt {
		o.b[0] += 1
	}
}

// meshBytes is what the workers put on mesh links in the last run: sent
// plus relayed bytes, exact.
func meshBytes(eng *dnet.Engine) int64 {
	var b int64
	for _, w := range eng.StreamWire() {
		b += w.Sent + w.Relayed
	}
	return b
}

// tracedOp is op on the traced seams, after an untraced op that gives the
// outputs it must match.
func (c *cluster) tracedOp(rec *recorder) (*outcome, error) {
	base, _ := c.timed()
	rec.call("graph.BarabasiAlbert", "graph", "", func() { graph.BarabasiAlbert(c.n, 4, c.cfg.seed) })
	rec.call("shard.Partition", "shard", "", func() { shard.Greedy{}.Partition(c.g, clusterWorkers) })
	eng := c.engine()
	traced := cliutil.Traced(eng, rec.tr)
	var o clusterOut
	runtime.GC() // as before every untraced timed call
	root := rec.beginOp(0)
	rec.call("core.RunDistributed", "net", "core", func() {
		res, met := core.RunDistributed(c.g, core.Options{Rounds: c.T}, traced)
		o.b, o.met = res.B, met
	})
	rec.endOp(root)
	c.corrupt(&o)
	cnt := counts{
		"dist.messages":   float64(o.met.Messages),
		"dist.wire_bytes": float64(o.met.WireBytes),
		"core.messages":   float64(o.met.Messages),
		"net.wire_bytes":  float64(meshBytes(eng)),
	}
	for _, w := range eng.StreamWire() {
		if v := float64(w.Sent + w.Relayed); v > cnt["net.max_worker_wire_bytes"] {
			cnt["net.max_worker_wire_bytes"] = v
		}
		cnt["net.chunks"] += float64(w.Chunks)
		cnt["net.credits"] += float64(w.Credits)
	}
	sm := eng.ClusterMetrics()
	cnt["shard.cross_frame_bytes"] = float64(sm.CrossFrameBytes)
	cnt["shard.max_shard_bytes"] = float64(sm.MaxShardBytes)
	return &outcome{
		root:   root,
		counts: cnt,
		check: func() error {
			if err := c.check(o); err != nil {
				return err
			}
			if o.met != base.met {
				return fmt.Errorf("traced metrics %+v differ from untraced %+v", o.met, base.met)
			}
			return sameBits("traced values", o.b, base.b)
		},
	}, nil
}

func (c *cluster) check(o clusterOut) error {
	if o.met != c.refMet {
		return fmt.Errorf("cluster metrics %+v differ from the sequential run's %+v", o.met, c.refMet)
	}
	return sameBits("cluster values vs sequential run", o.b, c.ref)
}

func (c *cluster) release() { c.ref = nil }

func (c *cluster) close() {}
