package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/shard"
)

// EngineUsage is the -engine flag help text shared by cmd/kcore and
// cmd/repro.
const EngineUsage = "execution engine: seq | par[:W] | shard:P[:hash|range|greedy] | net:P[:part[:pipe|unix|tcp]] (par workers default: GOMAXPROCS; partitioner default: greedy)"

// ParsePartitioner resolves a partitioner name. It is the single place
// partitioner names are spelled, shared by the -engine flag, cmd/cluster's
// flags and the cluster handshake's PartName field.
func ParsePartitioner(name string) (shard.Partitioner, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "hash":
		return shard.Hash{}, nil
	case "range":
		return shard.Range{}, nil
	case "", "greedy":
		return shard.Greedy{}, nil
	default:
		return nil, fmt.Errorf("unknown partitioner %q (want hash, range or greedy)", name)
	}
}

// ParseEngine resolves an -engine flag value to a dist.Engine. The empty
// string and "seq" mean the sequential reference engine, "par[:W]" the
// worker-pool parallel engine with W workers (default: GOMAXPROCS),
// "shard:P[:partitioner]" the sharded cluster engine with P shards, and
// "net:P[:partitioner[:transport]]" the
// socket-cluster engine — P workers speaking the real wire protocol over
// net.Pipe, unix-domain or TCP loopback connections (transport defaults to
// pipe; cmd/cluster is the multi-process form); round traffic streams
// worker↔worker over the mesh (DESIGN.md §14).
// Partitioners default to greedy — the one worth deploying.
func ParseEngine(spec string) (dist.Engine, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch s {
	case "", "seq":
		return dist.SeqEngine{}, nil
	case "par":
		return dist.ParEngine{}, nil
	}
	parts := strings.Split(s, ":")
	kind := parts[0]
	if kind == "par" {
		if len(parts) != 2 {
			return nil, fmt.Errorf("unknown engine %q (want %s)", spec, EngineUsage)
		}
		w, err := strconv.Atoi(parts[1])
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad worker count in %q: want par:W with W >= 1", spec)
		}
		return dist.ParEngine{W: w}, nil
	}
	if kind != "shard" && kind != "net" {
		return nil, fmt.Errorf("unknown engine %q (want %s)", spec, EngineUsage)
	}
	maxParts := 3
	if kind == "net" {
		maxParts = 4
	}
	if len(parts) < 2 || len(parts) > maxParts {
		return nil, fmt.Errorf("unknown engine %q (want %s)", spec, EngineUsage)
	}
	p, err := strconv.Atoi(parts[1])
	if err != nil || p < 1 {
		return nil, fmt.Errorf("bad shard count in %q: want %s:P with P >= 1", spec, kind)
	}
	var part shard.Partitioner = shard.Greedy{}
	if len(parts) >= 3 {
		if part, err = ParsePartitioner(parts[2]); err != nil {
			return nil, fmt.Errorf("%v in %q", err, spec)
		}
	}
	if kind == "shard" {
		return shard.NewEngine(p, part), nil
	}
	eng := dnet.NewEngine(p, part)
	if len(parts) == 4 {
		switch parts[3] {
		case dnet.TransportPipe, dnet.TransportUnix, dnet.TransportTCP:
			eng.Transport = parts[3]
		default:
			return nil, fmt.Errorf("unknown transport %q in %q (want pipe, unix or tcp)", parts[3], spec)
		}
	}
	return eng, nil
}
