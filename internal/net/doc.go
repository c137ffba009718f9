// Package net implements the real-socket cluster transport: a fourth
// dist.Engine that runs a protocol as a coordinator plus P workers
// connected by real network connections (net.Pipe for in-process runs,
// unix-domain or TCP sockets for separate processes via cmd/cluster), with
// each worker owning one shard of the graph. Round traffic streams
// worker↔worker over a mesh of data connections as chunked, flow-controlled
// flows, and the coordinator is the round barrier and digest verifier — it
// never sees a frame (DESIGN.md §8 is the normative protocol spec, §14 the
// mesh).
//
// The execution stays byte-identical to dist.SeqEngine — same results,
// same inbox ordering, same Metrics — by construction:
//
//   - Every worker holds the full (immutable) graph and a full dist.Driver,
//     but steps only the nodes of its own shard. The handshake pins the
//     inputs (graph.Fingerprint, shard.PartitionDigest, the threshold set
//     Λ, the round budget) so no two processes can silently disagree.
//   - After the round's local Steps, the worker taps its nodes' buffered
//     sends (dist.Driver.Sends), prices its shard's share of the protocol
//     Metrics through dist.WireSize, and streams every cross-shard message
//     to its owner in the lossless body codec of internal/shard
//     (shard.PeerStream), ending each flow with its totals and digest.
//   - Once every worker reports done, the coordinator releases the round;
//     a worker awaits every inbound flow and replays the received messages
//     through ghost programs — stand-ins for the remote senders that
//     re-issue the decoded messages — so the local delivery assembles
//     every inbox in the package-wide deterministic order (ascending
//     sender ID, ties in send order) exactly as SeqEngine would. The
//     workers' acks let the coordinator verify that every flow arrived as
//     sent: sent[a][b] == recv[b][a], every round.
//   - Metrics are sums over messages, hence order-independent: the
//     coordinator adds up the workers' shares and necessarily lands on
//     SeqEngine's numbers. Rounds and Halted come from the coordinator's
//     own loop, which mirrors SeqEngine's round loop condition for
//     condition.
//
// Engine is the in-process form and accepts any dist.Factory. Its workers
// come from Launch, the one in-process cluster launcher (internal/session's
// Open uses it too): goroutines over net.Pipe, or over real localhost
// sockets with Transport "unix"/"tcp", meshed through a LocalMesh, with one
// spawn policy and one respawn path. RunCoordinator and Worker are the two
// protocol endpoints cmd/cluster wires to separate processes, with Listener
// sharing each worker's one listen socket between its coordinator
// connection and its mesh links; there the factory cannot cross the
// process boundary, so the handshake carries generator/partitioner/
// protocol spec strings each worker resolves locally.
//
// Hub is the coordinator side of P connections and carries the one
// recovering receive both coordinators — this package's run and
// internal/session's epochs — build on: Next and NextFrom (with a stash
// that defers other workers' records and drops a replaced incarnation's),
// Blame (the sender, or the sole laggard of a timeout) and Respawn (the
// per-worker attempt cap, then the swap to a fresh incarnation).
//
// What the cluster adds on top of dist.Metrics is the same placement
// ledger the sharded engine reports: a shard.ShardMetrics pricing every
// non-empty flow as one shard-engine frame (Engine.ClusterMetrics).
//
// The cluster also absorbs edge churn without re-sharding (DESIGN.md §9):
// Engine.Churn installs a dist.GraphDelta that the next run ships to every
// worker as a delta record, digest-pinned in the handshake; workers apply
// it and rerun the partitioner's Rebalance locally, so a churned execution
// stays byte-identical to a fresh SeqEngine run on the mutated graph.
// Crash recovery (DESIGN.md §13) restores a dead worker from its last
// checkpoint while its peers resend the flows it missed. ModelDelay bridges
// the asynchronous simulator's DelayModel onto the per-flow DelayFunc seam
// for latency-injected (but byte-identical) cluster runs.
package net
