// Package session is the fifth execution surface: a long-lived cluster
// that keeps P workers hot across runs and re-converges incrementally as
// churn streams in, instead of paying a full cold start per update
// (DESIGN.md §10).
//
// A session begins as an ordinary coordinated run over internal/net — the
// v2 handshake pins the graph fingerprint, the partition digest and (under
// churn) the delta digest exactly as before — but the connections do not
// hang up when the run finishes. The coordinator seals the run as epoch 0
// with a values-digest stamp, every worker verifies it against the
// incremental oracle it just built (a dynamic.Maintainer seeded from the
// run's graph), and from then on the session speaks the epoch protocol:
//
//	DeltaPush    coordinator → workers    one dist.GraphDelta batch, epoch e
//	Reconverge   worker → coordinator     own-shard changed values after repair
//	ValuesDigest both directions          codec.Stamp sealing epoch e (+ echo)
//	Bye          either direction         clean goodbye
//
// Each epoch every worker applies the batch in the canonical order to its
// full graph copy, repairs its Maintainer history (frontier repair, not a
// re-run), reruns the coordinator's incremental Rebalance, and ships only
// the values of its own post-rebalance shard that actually changed. The
// coordinator folds those into its value vector and seals the epoch with a
// stamp carrying the post-churn graph fingerprint, the rebalanced partition
// digest, the digest of the full value vector and a running chain digest
// that binds every earlier epoch. Workers verify all four against local
// state — P redundant oracles cross-checking one another and the
// coordinator bit for bit — so an N-epoch session is byte-identical to N
// fresh sequential runs on the cumulatively mutated graph, and any
// divergence kills the session at the epoch that introduced it.
//
// The runtime beneath the protocol is internal/net's: Open launches its
// workers with net.Launch, and the Coordinator receives, blames and
// respawns through the net.Hub the epoch-0 run used. Every worker —
// in-process or a cmd/cluster -session process — lives ServeWorker: the
// epoch-0 run, then the epoch loop. A respawned worker (DESIGN.md §13)
// recomputes its state from the committed graph and enters the same loop
// through the resume stamp instead of the epoch-0 one.
//
// Sessions run the exact threshold set Λ = ℝ only: the Maintainer repairs
// exact β_t histories and bit-equality with fresh runs additionally needs
// exactly summable weights (unit weights qualify; see NewWorkerState).
//
// On top of the epoch stream sits a subscription layer in the want-list /
// ledger shape of go-ipfs's IPPS exchange proposal (SNIPPETS.md): clients
// Subscribe to topics — "coreness:v" (β_T(v) changed), "topk:k" (the set of
// k highest-value nodes changed), "threshold:x" (nodes crossed x) — and
// after each sealed epoch the SubManager evaluates every distinct wanted
// topic once and emits notifications in deterministic order (ascending
// subscriber ID, canonical topic order within each want-list), updating a
// per-subscriber Ledger. A topic fires at most once per epoch per
// subscriber, and only when its answer changed.
package session
