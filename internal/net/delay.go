package net

import (
	"time"

	"distkcore/internal/dist"
)

// ModelDelay adapts the asynchronous simulator's dist.DelayModel to the
// socket transport's DelayFunc seam: every non-empty outgoing flow sleeps
// (Base + Jitter·U) × unit, with U ∈ [0,1) drawn deterministically from
// (Seed, src, dst, round) — so a run's injected latencies are reproducible
// like the simulator's, yet the hook is safe to install on every worker at
// once (no shared generator state; workers fire concurrently). The
// coordinator's barrier makes execution independent of timing (DESIGN.md
// §8.7), so the adapter can slow a cluster down like a netem-shaped link
// but can never change its bytes — the latency-injection test pins both
// halves of that claim.
func ModelDelay(d dist.DelayModel, unit time.Duration) DelayFunc {
	return func(src, dst, round, frameBytes int) {
		if dl := modelDelay(d, unit, src, dst, round); dl > 0 {
			time.Sleep(dl)
		}
	}
}

// modelDelay computes the deterministic sleep for one flow.
func modelDelay(d dist.DelayModel, unit time.Duration, src, dst, round int) time.Duration {
	delay := d.Base
	if d.Jitter > 0 {
		// One splitmix64 pass over the (seed, src, dst, round) tuple gives
		// an i.i.d.-looking U without any cross-call generator state.
		x := uint64(d.Seed)
		x = mix64(x ^ uint64(src)<<42 ^ uint64(dst)<<21 ^ uint64(round))
		u := float64(x>>11) / (1 << 53)
		delay += d.Jitter * u
	}
	return time.Duration(delay * float64(unit))
}

// mix64 is the SplitMix64 finalizer (the same mixer the hash partitioner
// uses; duplicated here because shard keeps its copy unexported).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
