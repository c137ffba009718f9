package cliutil

import (
	"testing"

	"distkcore/internal/dist"
	dnet "distkcore/internal/net"
	"distkcore/internal/shard"
)

func TestParseEngine(t *testing.T) {
	for spec, want := range map[string]string{
		"":                  "seq",
		"seq":               "seq",
		"par":               "par",
		" Par ":             "par",
		"par:8":             "par:8",
		"PAR:2":             "par:2",
		"shard:4":           "shard:4/greedy",
		"shard:16:hash":     "shard:16/hash",
		"shard:2:range":     "shard:2/range",
		"shard:8:greedy":    "shard:8/greedy",
		"SHARD:3:GREEDY":    "shard:3/greedy",
		"net:4":             "net:4/greedy",
		"net:2:hash":        "net:2/hash",
		"net:3:greedy:unix": "net:3/greedy/unix",
		"net:3:range:tcp":   "net:3/range/tcp",
		"net:8:hash:pipe":   "net:8/hash",
	} {
		eng, err := ParseEngine(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		var got string
		switch e := eng.(type) {
		case dist.SeqEngine:
			got = "seq"
		case dist.ParEngine:
			got = e.Name()
		case *shard.Engine:
			got = e.Name()
		case *dnet.Engine:
			got = e.Name()
		default:
			t.Fatalf("%q: unexpected engine type %T", spec, eng)
		}
		if got != want {
			t.Fatalf("%q parsed to %s, want %s", spec, got, want)
		}
	}
	for _, bad := range []string{
		"nope", "par:0", "par:x", "par:2:extra",
		"shard", "shard:0", "shard:x", "shard:4:metis", "shard:4:hash:extra",
		"net", "net:0", "net:x", "net:4:metis", "net:4:hash:udp", "net:4:hash:pipe:extra",
		"net:stream", "net:4:hash:pipe:stream:extra", "shard:4:stream", "par:stream",
		// Streaming is the only net data plane; the old ":stream" suffix is gone.
		"net:4:stream", "net:2:hash:stream", "net:3:greedy:unix:stream", "NET:4:HASH:STREAM",
	} {
		if _, err := ParseEngine(bad); err == nil {
			t.Fatalf("%q must not parse", bad)
		}
	}
}

func TestGraphSpecRoundTrip(t *testing.T) {
	spec := GraphSpec("ba", 500, 7)
	g, err := LoadGraphSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LoadGraph("", "ba", 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("spec %q does not reproduce the graph", spec)
	}
	for _, bad := range []string{"", "ba", "ba:10", "ba:x:1", "ba:10:y", "zzz:10:1"} {
		if _, err := LoadGraphSpec(bad); err == nil {
			t.Fatalf("%q must not parse", bad)
		}
	}
}
