package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"distkcore/internal/obs"
)

// span is one benchmark-owned interval around a call into a layer's public
// entry point. The program itself gains no hooks: spans inside it come
// from the existing obs tracer, and these wrap the calls the benchmark
// makes.
type span struct {
	Name string `json:"name"`
	// Layer is the layer charged with the span's self time: its duration
	// minus the part child spans cover. For a protocol run it is the
	// engine's layer (dist or net), whose scheduling code fills that gap.
	Layer string `json:"layer"`
	// Proto is the layer whose node hooks run inside the span (core or
	// densest), which owns the engine's step phases; "" when none do.
	Proto string `json:"proto,omitempty"`
	// Op is the op the span belongs to; -1 for calls outside any op.
	Op int `json:"op"`
	// Parent indexes the enclosing span; -1 at top level.
	Parent     int           `json:"parent"`
	Start, End time.Duration `json:"-"`
}

// recorder keeps the benchmark's spans in memory next to the program's
// obs tracer, on one clock; both are written out when the run ends.
type recorder struct {
	t0    time.Time
	tr    *obs.Tracer
	trOff time.Duration // tracer offset + trOff = recorder offset
	trErr time.Duration // how far trOff may be off
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now(), op: -1}
	r.tr = obs.NewTracer()
	// The tracer's clock started between t0 and now; take the midpoint.
	r.trErr = time.Since(r.t0) / 2
	r.trOff = r.trErr
	return r
}

func (r *recorder) begin(name, layer, proto string) int {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, Proto: proto, Op: r.op, Parent: parent, Start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.t0)
	r.stack = r.stack[:len(r.stack)-1]
}

// call records f as one span.
func (r *recorder) call(name, layer, proto string, f func()) {
	id := r.begin(name, layer, proto)
	f()
	r.end(id)
}

// beginOp opens op k's root span; every span until endOp belongs to op k.
func (r *recorder) beginOp(k int) int {
	r.op = k
	return r.begin("op", "", "")
}

func (r *recorder) endOp(root int) {
	r.end(root)
	r.op = -1
}

// abandon drops open spans after a failed call so later spans nest right.
func (r *recorder) abandon() {
	r.stack = r.stack[:0]
	r.op = -1
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// obsSpan is a program span moved onto the recorder clock and tied to the
// innermost benchmark span of the op that contains its start.
type obsSpan struct {
	obs.Span
	stage int
}

// programSpans returns the program's spans on the recorder clock.
func (r *recorder) programSpans() []obs.Span {
	spans := r.tr.Trace().Spans
	for i := range spans {
		spans[i].Start += r.trOff
		spans[i].End += r.trOff
	}
	return spans
}

// stray returns a program span that overlaps op root's interval without
// lying inside it, the interval widened by trErr at either end.
func (r *recorder) stray(root int) (obs.Span, bool) {
	lo, hi := r.spans[root].Start-r.trErr, r.spans[root].End+r.trErr
	for _, s := range r.programSpans() {
		if s.End >= lo && s.Start <= hi && (s.Start < lo || s.End > hi) {
			return s, true
		}
	}
	return obs.Span{}, false
}

// opSpans returns the program spans that start inside op root's interval,
// cut at its end.
func (r *recorder) opSpans(root int) []obsSpan {
	rs := r.spans[root]
	var out []obsSpan
	for _, s := range r.programSpans() {
		if s.Start < rs.Start || s.Start > rs.End {
			continue
		}
		if s.End > rs.End {
			s.End = rs.End
		}
		out = append(out, obsSpan{Span: s, stage: r.stageAt(root, s.Start)})
	}
	return out
}

// stageAt returns the innermost span of root's op whose interval holds t.
func (r *recorder) stageAt(root int, t time.Duration) int {
	best := root
	for i := root + 1; i < len(r.spans) && r.spans[i].Op == r.spans[root].Op; i++ {
		s := r.spans[i]
		if s.Start <= t && t <= s.End && r.depth(i) > r.depth(best) {
			best = i
		}
	}
	return best
}

func (r *recorder) depth(i int) int {
	d := 0
	for p := r.spans[i].Parent; p >= 0; p = r.spans[p].Parent {
		d++
	}
	return d
}

// item is one attribution bucket: a phase of the program inside a
// benchmark span, or (phase "") that span's own self time.
type item struct {
	stage int
	phase string
}

// Priorities of overlapping intervals: an instant belongs to the highest
// class active at it. Work by any worker beats waiting, waiting beats the
// enclosing epoch, and all program phases beat the benchmark span around
// them (deeper benchmark spans beat shallower ones). The stream
// coordinator's verify span counts as waiting: it releases the delivery
// barrier and then blocks until every worker has acked.
const (
	priEpoch = 100
	priWait  = 200
	priWork  = 300
)

func phasePriority(ph obs.Phase) int {
	switch ph {
	case obs.PhaseEpoch:
		return priEpoch
	case obs.PhaseBarrierWait, obs.PhaseRecv, obs.PhaseVerify:
		return priWait
	}
	return priWork
}

// split is the wall-clock attribution of one traced op: every instant of
// the op's root span goes to exactly one item, so the items sum to the
// traced wall time. When several workers run different phases at the same
// instant, the instant is split equally among them.
type split struct {
	wall  time.Duration
	items map[item]time.Duration
}

func (r *recorder) attribute(root int, spans []obsSpan) split {
	type ival struct {
		s, e time.Duration
		pri  int
		it   item
	}
	var ivs []ival
	for i := root; i < len(r.spans) && r.spans[i].Op == r.spans[root].Op; i++ {
		s := r.spans[i]
		ivs = append(ivs, ival{s.Start, s.End, r.depth(i), item{i, ""}})
	}
	for _, s := range spans {
		ivs = append(ivs, ival{s.Start, s.End, phasePriority(s.Phase), item{s.stage, s.Phase.String()}})
	}
	type event struct {
		t     time.Duration
		open  bool
		index int
	}
	evs := make([]event, 0, 2*len(ivs))
	for i, iv := range ivs {
		if iv.e > iv.s {
			evs = append(evs, event{iv.s, true, i}, event{iv.e, false, i})
		}
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].t < evs[b].t })
	out := split{wall: r.spans[root].End - r.spans[root].Start, items: map[item]time.Duration{}}
	active := map[int]bool{}
	var prev time.Duration
	for _, ev := range evs {
		if dt := ev.t - prev; dt > 0 && len(active) > 0 {
			top := -1
			for i := range active {
				if ivs[i].pri > top {
					top = ivs[i].pri
				}
			}
			var its []item
			for i := range active {
				if ivs[i].pri == top && !containsItem(its, ivs[i].it) {
					its = append(its, ivs[i].it)
				}
			}
			for k, it := range its {
				share := dt / time.Duration(len(its))
				if k == 0 {
					share += dt % time.Duration(len(its))
				}
				out.items[it] += share
			}
		}
		prev = ev.t
		if ev.open {
			active[ev.index] = true
		} else {
			delete(active, ev.index)
		}
	}
	return out
}

// covered is the time at least one of the spans item it stands for is
// open: the benchmark span itself for a self-time item, else the union of
// the program spans of its phase inside its stage.
func (r *recorder) covered(it item, spans []obsSpan) time.Duration {
	if it.phase == "" {
		return r.spans[it.stage].End - r.spans[it.stage].Start
	}
	var ivs [][2]time.Duration
	for _, s := range spans {
		if s.stage == it.stage && s.Phase.String() == it.phase {
			ivs = append(ivs, [2]time.Duration{s.Start, s.End})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var d, reach time.Duration
	for _, iv := range ivs {
		if iv[0] > reach {
			reach = iv[0]
		}
		if iv[1] > reach {
			d += iv[1] - reach
			reach = iv[1]
		}
	}
	return d
}

func containsItem(its []item, it item) bool {
	for _, x := range its {
		if x == it {
			return true
		}
	}
	return false
}

// layerOf names the layer an attribution item is charged to; "" is the
// unattributed remainder (the root span's self time).
func (r *recorder) layerOf(it item) string {
	s := r.spans[it.stage]
	switch it.phase {
	case "":
		return s.Layer
	case "step":
		if s.Proto != "" {
			return s.Proto
		}
		return s.Layer
	case "deliver":
		return "dist"
	case "encode", "relay", "send", "recv", "verify", "recover", "replay":
		return "net"
	case "repair":
		return "dynamic"
	case "rebalance":
		return "shard"
	case "publish", "epoch":
		return "session"
	}
	return s.Layer
}

// sum adds up the attributed time of the items that match.
func (r *recorder) sum(sp split, match func(s span, phase string) bool) time.Duration {
	var d time.Duration
	for it, v := range sp.items {
		if match(r.spans[it.stage], it.phase) {
			d += v
		}
	}
	return d
}

// roundMax groups the matching program spans by round and sums, over the
// rounds, the largest value f gives within each round. Waits are reported
// this way: a sum across workers can exceed the wall time.
func roundMax(spans []obsSpan, match func(s obsSpan) bool, f func(group []obsSpan) time.Duration) time.Duration {
	by := map[[2]int][]obsSpan{}
	for _, s := range spans {
		if match(s) {
			k := [2]int{s.stage, s.Round}
			by[k] = append(by[k], s)
		}
	}
	var d time.Duration
	for _, g := range by {
		d += f(g)
	}
	return d
}

func longest(g []obsSpan) time.Duration {
	var m time.Duration
	for _, s := range g {
		if s.Dur() > m {
			m = s.Dur()
		}
	}
	return m
}

// lagging is a round's barrier wait derived from its step spans: the time
// between the first and the last worker finishing its step.
func lagging(g []obsSpan) time.Duration {
	if len(g) < 2 {
		return 0
	}
	lo, hi := g[0].End, g[0].End
	for _, s := range g[1:] {
		if s.End < lo {
			lo = s.End
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return hi - lo
}

// chromeEvent is one Chrome trace-event record ("X" = complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the benchmark spans (pid 1) and the program's obs
// spans (pid 0, one thread per worker, the coordinator on thread 0) as
// Chrome trace-event JSON on the recorder clock.
func (r *recorder) writeChrome(path string) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var evs []chromeEvent
	for i, s := range r.spans {
		evs = append(evs, chromeEvent{Name: s.Name, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 0,
			Args: map[string]any{"id": i, "op": s.Op, "parent": s.Parent, "layer": s.Layer}})
	}
	for _, s := range r.programSpans() {
		evs = append(evs, chromeEvent{Name: s.Phase.String(), Ph: "X", Ts: us(s.Start), Dur: us(s.Dur()), Pid: 0, Tid: s.Worker + 1,
			Args: map[string]any{"round": s.Round, "bytes": s.Bytes, "count": s.Count}})
	}
	enc, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
