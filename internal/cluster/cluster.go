// Package cluster provides the ensemble-management layer the paper
// motivates ("in data and computing centers, this can be a valuable tool
// for keeping the center within temperature and power limits"): a set of
// simulated nodes observed purely through the trickle-down estimator.
// internal/sched plans budget enforcement and consolidation over its
// snapshots, in the spirit of the Rajamani/Chen node-power-down studies
// the paper cites.
//
// The manager never reads a node's measured rails; they remain available
// (Node.MeasuredMean) only so callers can verify decisions the way the
// paper verifies its models.
//
// # Concurrency model
//
// Run steps nodes in parallel on a bounded worker pool (internal/pool;
// default runtime.GOMAXPROCS workers, SetWorkers to change). The fleet
// is partitioned into contiguous shards — several nodes per pool task —
// so coordination cost per run is O(shards), not O(nodes): at 10,000
// nodes a run dispatches a few dozen pool tasks instead of ten thousand,
// and per-node telemetry is folded into per-shard accumulators merged
// deterministically in shard order. Each node owns an independent seeded
// machine.Server and its own sample accumulators, so parallel stepping
// is deterministic: for a fixed set of seeds, Snapshot and
// VerifyAccuracy return bit-for-bit the same values at any worker count
// (and therefore any shard count), including 1 (the serial path). Node
// failures are aggregated — Run reports every failed node, in insertion
// order, instead of stopping at the first. RunContext adds cooperative
// cancellation: nodes stop at the next slice boundary and the partial
// samples folded so far remain valid. Run calls are serialized with each
// other; Snapshot, VerifyAccuracy and the per-node means may be called
// concurrently with a running Run and observe each node's last fully
// folded state. SetWorkers may also be called during a run: the new
// bound takes effect at the start of the next run, never mid-run.
//
// # Fault model
//
// A node that fails a run — its machine crashes, its stepping worker
// panics, or its logs stop aligning — is quarantined rather than
// aborting the whole run: its pre-failure samples are kept, its means
// return ErrNodeFailed, later runs skip it, and Snapshot/VerifyAccuracy
// report over the healthy survivors (Coverage says how much of the
// cluster that is). Cancellation is not a fault: a node stopped by ctx
// keeps running next time. SetRetry adds per-node retries with backoff
// before a failure is declared; InjectFaults wires a deterministic
// chaos plan (internal/faults) into every node for testing all of the
// above.
//
// Distinct from quarantine, SetPowered administratively powers a node
// down (a scheduler consolidation decision, internal/sched): the node
// stops being stepped and stops contributing to Snapshot, but it is
// healthy and can be powered back on.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/faults"
	"trickledown/internal/machine"
	"trickledown/internal/pool"
	"trickledown/internal/stats"
	"trickledown/internal/telemetry"
	"trickledown/internal/tracez"
	"trickledown/internal/workload"
)

// Cluster telemetry: per-node stepping progress plus the cost of folding
// freshly sampled rows into the running means. RunContext itself is
// timed as the "cluster.run" span. Counters are batched per shard, not
// per node, so a 10k-node fleet does not pay 10k atomic increments per
// metric per run.
var (
	mNodeRuns = telemetry.NewCounter("cluster_node_runs_total",
		"individual node stepping tasks completed (one per node per Run)")
	mNodeSimSeconds = telemetry.NewFloatCounter("cluster_node_sim_seconds_total",
		"simulated seconds advanced, summed across nodes")
	mSamplesFolded = telemetry.NewCounter("cluster_samples_folded_total",
		"counter samples folded into node means")
	mFoldLatency = telemetry.NewHistogram("cluster_fold_seconds",
		"per-node fold latency (dataset merge to accumulated means)", nil)
	mNodeFailures = telemetry.NewCounter("cluster_nodes_quarantined_total",
		"nodes quarantined after a failed run (crash, panic or unalignable logs)")
	mNodePanics = telemetry.NewCounter("cluster_node_panics_recovered_total",
		"panics recovered while stepping a node, converted to quarantine")
	mNodeRetries = telemetry.NewCounter("cluster_node_step_retries_total",
		"node step re-executions after a failed attempt")
	mShardRuns = telemetry.NewCounter("cluster_shard_runs_total",
		"shard stepping tasks completed (several nodes per task)")
	gQuarantined = telemetry.NewGauge("cluster_quarantined_nodes",
		"nodes currently quarantined")
	gPoweredOff = telemetry.NewGauge("cluster_powered_off_nodes",
		"nodes administratively powered down by a scheduler decision")
)

// ErrNoSamples is returned when a node has not produced counter samples
// yet.
var ErrNoSamples = errors.New("cluster: node has no samples")

// ErrNodeFailed is wrapped by every error involving a quarantined node:
// its means, and a Snapshot taken after the whole cluster has failed.
var ErrNodeFailed = errors.New("cluster: node failed")

// ErrUnknownNode is returned by name-keyed operations (SetPowered) for a
// name the cluster does not manage.
var ErrUnknownNode = errors.New("cluster: unknown node")

// Node is one managed server.
type Node struct {
	// Name identifies the node in plans and reports.
	Name string
	srv  *machine.Server
	// lastT is the counter timestamp of the last folded row. Folding by
	// timestamp (not row index) keeps resumed folds correct when the
	// robust merge later interpolates rows into an earlier gap.
	lastT float64

	// mu guards the fold accumulators below, so readers (Snapshot,
	// VerifyAccuracy) are safe against the worker currently folding this
	// node. The server itself is only ever touched by that one worker.
	mu sync.Mutex
	// estSum/measSum accumulate per-sample totals for means.
	estSum  float64
	measSum float64
	n       int
	// winSum/winN hold only the rows folded by the most recent Run —
	// the per-interval windowed reading a closed-loop scheduler steers
	// by, where the cumulative mean would smear a diurnal cycle flat.
	winSum float64
	winN   int
	// err, once set, marks the node quarantined; see quarantine.
	err     error
	quality align.Quality
	// off marks the node administratively powered down (SetPowered):
	// healthy, not stepped, not contributing to snapshots.
	off bool
}

// Cluster manages a set of nodes with one shared estimator (the paper's
// fit-once, deploy-everywhere economics).
type Cluster struct {
	est *core.Estimator

	mu     sync.Mutex // guards nodes, byName, workers, retry and plan
	nodes  []*Node    // insertion order; append-only
	byName map[string]int
	// view is the published read-only snapshot of nodes: a slice header
	// over the same append-only backing array, so readers (Run, Snapshot,
	// Coverage) iterate the fleet without taking mu or copying 10k
	// pointers per call. Appending only ever writes past every published
	// view's length, which keeps lock-free readers safe.
	view    atomic.Pointer[[]*Node]
	workers int // desired stepping concurrency; applied at next run
	retry   pool.Retry
	plan    *faults.Plan

	runMu sync.Mutex // serializes Run calls; a Server is not reentrant
	// p is the stepping pool, owned by the run path: SetWorkers only
	// records the desired bound, and the pool is (re)built here at the
	// start of the next run — a mid-run SetWorkers can never swap the
	// pool out from under in-flight shard tasks.
	p *pool.Pool
	// stepErrs is the per-node last-attempt error scratch, reused across
	// runs so a per-interval scheduler loop does not allocate O(nodes)
	// every tick.
	stepErrs []error
	shards   []shardAcc
}

// New returns an empty cluster using the given fitted estimator, stepping
// nodes on a default-sized worker pool (see SetWorkers).
func New(est *core.Estimator) (*Cluster, error) {
	if est == nil {
		return nil, errors.New("cluster: nil estimator")
	}
	c := &Cluster{
		est:     est,
		byName:  make(map[string]int),
		workers: runtime.GOMAXPROCS(0),
	}
	empty := []*Node(nil)
	c.view.Store(&empty)
	return c, nil
}

// SetWorkers bounds how many shard tasks Run executes concurrently.
// Non-positive n restores the default, runtime.GOMAXPROCS. One worker
// reproduces the serial path exactly; any other count produces identical
// results (each node is an independent seeded simulation), just faster.
// Calling it during a run is safe: the running run keeps its pool and
// the new bound takes effect when the next run starts.
func (c *Cluster) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers = n
}

// SetRetry makes Run retry a failed node step (with pool's capped
// exponential backoff) before declaring the node failed. The zero Retry
// restores single-attempt stepping. Retries are safe: folding is
// idempotent (timestamp-guarded) and a genuinely crashed machine fails
// every attempt immediately.
func (c *Cluster) SetRetry(r pool.Retry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retry = r
}

// InjectFaults wires the chaos plan into every current and future node
// (specs match nodes by name; see internal/faults). It returns how many
// existing nodes got an injector attached. A nil plan detaches nothing —
// injectors already attached keep running — so install the plan before
// the first Run. Intended for tests and chaos drills, not production
// estimation.
func (c *Cluster) InjectFaults(plan *faults.Plan) (int, error) {
	if plan == nil {
		return 0, errors.New("cluster: nil fault plan")
	}
	if err := plan.Validate(); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan = plan
	attached := 0
	for _, n := range c.nodes {
		if faults.Attach(plan, n.Name, n.srv) {
			attached++
		}
	}
	return attached, nil
}

// AddHomogeneous adds a node running one workload on the default server
// configuration.
func (c *Cluster) AddHomogeneous(name, workloadName string, seed uint64) (*Node, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	return c.AddHomogeneousConfig(name, workloadName, cfg)
}

// AddHomogeneousConfig adds a node running one workload on an explicit
// hardware configuration — the heterogeneous-fleet path (mixed chipset
// and CPU-count generations in one cluster).
func (c *Cluster) AddHomogeneousConfig(name, workloadName string, cfg machine.Config) (*Node, error) {
	spec, err := workload.ByName(workloadName)
	if err != nil {
		return nil, err
	}
	srv, err := machine.New(cfg, spec)
	if err != nil {
		return nil, err
	}
	return c.add(name, srv)
}

// AddMixedConfig adds a node with heterogeneous placements on an
// explicit hardware configuration.
func (c *Cluster) AddMixedConfig(name string, cfg machine.Config, placements []machine.Placement) (*Node, error) {
	srv, err := machine.NewMixed(cfg, placements)
	if err != nil {
		return nil, err
	}
	return c.add(name, srv)
}

func (c *Cluster) add(name string, srv *machine.Server) (*Node, error) {
	if name == "" {
		return nil, errors.New("cluster: empty node name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// The name index makes duplicate detection O(1); the old linear scan
	// made building a 10k-node fleet O(n²) in string compares.
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("cluster: duplicate node %q", name)
	}
	if c.plan != nil {
		faults.Attach(c.plan, name, srv)
	}
	n := &Node{Name: name, srv: srv}
	c.byName[name] = len(c.nodes)
	c.nodes = append(c.nodes, n)
	v := c.nodes
	c.view.Store(&v)
	return n, nil
}

// nodesView returns the current fleet in insertion order without copying
// or locking — the internal iteration path. Callers must not mutate it.
func (c *Cluster) nodesView() []*Node { return *c.view.Load() }

// Nodes returns the managed nodes in insertion order. The slice is a
// fresh copy the caller may keep; hot paths iterating every interval
// should use NumNodes/Lookup or the streaming Snapshot APIs instead.
func (c *Cluster) Nodes() []*Node {
	return append([]*Node(nil), c.nodesView()...)
}

// NumNodes returns the managed node count without allocating.
func (c *Cluster) NumNodes() int { return len(c.nodesView()) }

// Lookup returns the named node, or false. It is O(1): per-interval
// control loops resolve names against a 10k-node fleet without scans.
func (c *Cluster) Lookup(name string) (*Node, bool) {
	c.mu.Lock()
	i, ok := c.byName[name]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.nodesView()[i], true
}

// SetPowered administratively powers the named node down (on=false) or
// back up (on=true) — the actuation path for a scheduler's consolidation
// decisions (internal/sched). A powered-down node is healthy: it is
// skipped by Run (its simulation freezes, costing nothing) and excluded
// from Snapshot/VerifyAccuracy, but keeps its folded history and resumes
// when powered back on. Quarantine is independent and dominant: powering
// a quarantined node "on" does not resurrect it.
func (c *Cluster) SetPowered(name string, on bool) error {
	n, ok := c.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, name)
	}
	n.mu.Lock()
	changed := n.off == on
	n.off = !on
	n.mu.Unlock()
	if changed {
		if on {
			gPoweredOff.Add(-1)
		} else {
			gPoweredOff.Add(1)
		}
	}
	return nil
}

// Powered reports whether the node is administratively powered on. A
// quarantined node may still report true; quarantine is tracked by Err.
func (n *Node) Powered() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return !n.off
}

// skipRun reports whether Run should leave this node alone, reading the
// quarantine and power state under one lock acquisition.
func (n *Node) skipRun() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err != nil || n.off
}

// Run advances every node by the given simulated seconds and folds the
// new samples into the running means. Nodes are stepped in parallel on
// the cluster's worker pool; see the package comment for the determinism
// and error-aggregation guarantees.
func (c *Cluster) Run(seconds float64) error {
	return c.RunContext(context.Background(), seconds)
}

// shardAcc is one shard's fold accumulator: per-node telemetry batched
// over the shard's node range, merged in shard order after the pool
// drains. Failed node indices land in the shared per-node error scratch,
// which keeps failure reporting in insertion order no matter how shards
// were scheduled.
type shardAcc struct {
	lo, hi     int
	runs       uint64
	samples    uint64
	simSeconds float64
	failed     int
}

// shardsPerWorker oversubscribes shards relative to workers so one
// expensive shard (heterogeneous nodes are not equally costly) does not
// leave the other workers idle at the end of a run.
const shardsPerWorker = 4

// planShards partitions n nodes into contiguous balanced shards. Shard
// boundaries affect scheduling only, never results: folds are per-node
// and accumulators are merged in shard index order.
func planShards(acc []shardAcc, n, workers int) []shardAcc {
	count := workers * shardsPerWorker
	if count > n {
		count = n
	}
	if count < 1 {
		count = 1
	}
	acc = acc[:0]
	base, rem := n/count, n%count
	lo := 0
	for s := 0; s < count; s++ {
		size := base
		if s < rem {
			size++
		}
		acc = append(acc, shardAcc{lo: lo, hi: lo + size})
		lo += size
	}
	return acc
}

// RunContext is Run with cooperative cancellation. On cancellation the
// aggregate error includes ctx.Err(); nodes already stepped keep their
// folded samples (each node stops between slices, never mid-slice).
//
// A node whose step fails for any reason other than cancellation —
// machine crash, worker panic (recovered into a *pool.PanicError),
// unalignable logs — is quarantined after the configured retries: the
// returned error reports it (wrapping ErrNodeFailed and the cause), but
// every healthy node still completes its step, and later calls skip the
// quarantined node instead of failing again.
func (c *Cluster) RunContext(ctx context.Context, seconds float64) error {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	defer telemetry.StartSpan("cluster.run").End()
	nodes := c.nodesView()
	c.mu.Lock()
	retry := c.retry
	workers := c.workers
	c.mu.Unlock()
	// The pool is rebuilt here, between runs, when SetWorkers changed the
	// bound — never mid-run.
	if c.p == nil || c.p.Workers() != workers {
		c.p = pool.New(workers)
	}
	n := len(nodes)
	// Cluster runs are low-volume (one per simulated interval), so every
	// run gets a trace on the process recorder unconditionally: chaos
	// drills read the quarantine timeline from /debug/tracez instead of
	// correlating log lines.
	rec := tracez.Default()
	tr := rec.StartAt(tracez.NewTraceID(), "cluster", "", time.Now())
	tr.AddAt(tracez.EvAdmitted, tr.Start, int64(n), "")
	// final[i] is node i's last-attempt error; slots are written by the
	// shard owning node i and read only after the pool drains. The
	// scratch is reused across runs.
	if cap(c.stepErrs) < n {
		c.stepErrs = make([]error, n)
	}
	final := c.stepErrs[:n]
	for i := range final {
		final[i] = nil
	}
	c.shards = planShards(c.shards, n, workers)
	shards := c.shards
	poolErr := c.p.Run(ctx, len(shards), func(ctx context.Context, s int) error {
		acc := &shards[s]
		for i := acc.lo; i < acc.hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			node := nodes[i]
			if node.skipRun() {
				continue // quarantined by an earlier run, or powered down
			}
			// Retry the node, not the shard: retrying a shard would
			// re-step its healthy nodes.
			added := 0
			err := retry.Run(ctx, mNodeRetries, func() error {
				k, err := node.step(ctx, c.est, seconds)
				added += k
				return err
			})
			acc.runs++
			acc.samples += uint64(added)
			acc.simSeconds += seconds
			if err != nil {
				final[i] = err
				acc.failed++
			}
		}
		return nil
	})
	// Merge the shard accumulators deterministically in shard index
	// order; the totals are independent of scheduling.
	var runs, samples uint64
	var simSeconds float64
	for s := range shards {
		runs += shards[s].runs
		samples += shards[s].samples
		simSeconds += shards[s].simSeconds
	}
	mShardRuns.Add(uint64(len(shards)))
	mNodeRuns.Add(runs)
	mSamplesFolded.Add(samples)
	mNodeSimSeconds.Add(simSeconds)
	if ctx.Err() != nil {
		// Cancellation is not a node fault: report it, quarantine nothing.
		tr.Outcome = "cancelled"
		rec.Finish(tr)
		return poolErr
	}
	var failures []error
	for i, err := range final {
		if err == nil {
			continue
		}
		nodes[i].quarantine(err)
		tr.AddAt(tracez.EvQuarantine, time.Now(), int64(i), nodes[i].Name)
		failures = append(failures, fmt.Errorf("cluster: node %s: %w: %w", nodes[i].Name, ErrNodeFailed, err))
	}
	if len(failures) > 0 {
		tr.Outcome = "quarantine"
	}
	tr.AddAt(tracez.EvDeparted, time.Now(), int64(n-len(failures)), "")
	rec.Finish(tr)
	return errors.Join(failures...)
}

// step advances one node and folds its fresh samples, converting a
// panic anywhere underneath (machine, DAQ, fold) into an error so one
// poisoned node cannot take down the whole run. It returns how many new
// samples were folded.
func (n *Node) step(ctx context.Context, est *core.Estimator, seconds float64) (added int, err error) {
	defer func() {
		if v := recover(); v != nil {
			mNodePanics.Inc()
			err = pool.NewPanicError(v)
		}
	}()
	runErr := n.srv.RunContext(ctx, seconds)
	// Fold whatever was sampled even on a cancelled or crashed (partial)
	// run, through the robust merge so a degraded sensor chain yields a
	// repaired trace plus a Quality report instead of an abort.
	foldStart := time.Now()
	ds, quality, dsErr := n.srv.DatasetRobust()
	if dsErr == nil {
		added = n.fold(est, ds, quality)
		mFoldLatency.Observe(time.Since(foldStart).Seconds())
	}
	if runErr != nil {
		return added, runErr
	}
	return added, dsErr
}

// fold accumulates the node's not-yet-seen samples into its running
// means and returns how many rows were new. Only the worker stepping the
// node calls it (Run calls are serialized), so n.lastT and the dataset
// walk need no lock; the lock protects the accumulators against
// concurrent mean readers.
func (n *Node) fold(est *core.Estimator, ds *align.Dataset, quality align.Quality) int {
	var estSum, measSum float64
	added := 0
	for i := range ds.Rows {
		row := &ds.Rows[i]
		if row.Counters.TargetSeconds <= n.lastT {
			continue
		}
		n.lastT = row.Counters.TargetSeconds
		estSum += est.Estimate(&row.Counters).Total()
		measSum += row.Power.Total()
		added++
	}
	n.mu.Lock()
	n.estSum += estSum
	n.measSum += measSum
	n.n += added
	if added > 0 {
		n.winSum = estSum
		n.winN = added
	}
	n.quality = quality
	n.mu.Unlock()
	return added
}

// WindowMean returns the node's estimated average total power over the
// rows folded by the most recent Run that produced samples — the
// per-interval signal for closed-loop scheduling. Quarantined nodes
// fail like EstimatedMean; a node that has never folded samples returns
// ErrNoSamples.
func (n *Node) WindowMean() (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return 0, fmt.Errorf("%w: %s: %w", ErrNodeFailed, n.Name, n.err)
	}
	if n.winN == 0 {
		return 0, ErrNoSamples
	}
	return n.winSum / float64(n.winN), nil
}

// quarantine marks the node failed. First cause wins; the samples
// folded before the failure stay readable through Quality/Coverage but
// the means start returning ErrNodeFailed.
func (n *Node) quarantine(cause error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return
	}
	n.err = cause
	mNodeFailures.Inc()
	gQuarantined.Add(1)
}

// Err returns nil for a healthy node, or the failure that quarantined
// it.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Quality returns the data-quality summary from the node's most recent
// fold — how much repair the robust merge performed on its logs.
func (n *Node) Quality() align.Quality {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quality
}

// EstimatedMean returns the node's counter-estimated average total
// power. A quarantined node returns an error wrapping ErrNodeFailed and
// the failure cause.
func (n *Node) EstimatedMean() (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return 0, fmt.Errorf("%w: %s: %w", ErrNodeFailed, n.Name, n.err)
	}
	if n.n == 0 {
		return 0, ErrNoSamples
	}
	return n.estSum / float64(n.n), nil
}

// MeasuredMean returns the node's measured average total power — ground
// truth the manager itself never uses. Quarantined nodes fail like
// EstimatedMean.
func (n *Node) MeasuredMean() (float64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil {
		return 0, fmt.Errorf("%w: %s: %w", ErrNodeFailed, n.Name, n.err)
	}
	if n.n == 0 {
		return 0, ErrNoSamples
	}
	return n.measSum / float64(n.n), nil
}

// means returns (estimated, measured, ok) in one lock acquisition for
// the streaming verification path; ok is false for a node that should be
// skipped (quarantined or powered down) and err reports a healthy
// powered-on node without samples.
func (n *Node) means() (est, meas float64, ok bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.err != nil || n.off {
		return 0, 0, false, nil
	}
	if n.n == 0 {
		return 0, 0, false, ErrNoSamples
	}
	return n.estSum / float64(n.n), n.measSum / float64(n.n), true, nil
}

// Estimate is one node's reading in a cluster snapshot.
type Estimate struct {
	Name  string
	Watts float64
}

// SnapshotInto is Snapshot with a caller-owned buffer: estimates are
// appended to dst[:0] and the (possibly regrown) slice is returned, so a
// scheduler polling every simulated interval reuses one allocation
// instead of churning an O(nodes) slice per tick. With a large enough
// buffer the steady-state call allocates nothing.
func (c *Cluster) SnapshotInto(dst []Estimate) ([]Estimate, float64, error) {
	dst = dst[:0]
	nodes := c.nodesView()
	total := 0.0
	contributing, quarantined := 0, 0
	for _, n := range nodes {
		est, _, ok, err := n.means()
		if err != nil {
			return dst, 0, fmt.Errorf("cluster: node %s: %w", n.Name, err)
		}
		if !ok {
			if n.Err() != nil {
				quarantined++
			}
			continue
		}
		contributing++
		total += est
		dst = append(dst, Estimate{Name: n.Name, Watts: est})
	}
	if contributing == 0 && quarantined == len(nodes) && len(nodes) > 0 {
		return dst, 0, fmt.Errorf("%w: all %d nodes quarantined", ErrNodeFailed, len(nodes))
	}
	return dst, total, nil
}

// Snapshot returns the per-node estimated means plus the cluster total,
// in node insertion order regardless of how the underlying runs were
// scheduled. Quarantined and powered-down nodes are skipped — a
// quarantined node's draw is unknown, not zero; use Coverage to see how
// much of the cluster the total covers. A healthy powered-on node
// without samples is still an error (ErrNoSamples), and a cluster with
// every node quarantined fails with ErrNodeFailed.
func (c *Cluster) Snapshot() ([]Estimate, float64, error) {
	snap, total, err := c.SnapshotInto(make([]Estimate, 0, c.NumNodes()))
	if err != nil {
		return nil, 0, err
	}
	return snap, total, nil
}

// Coverage describes how much of the cluster the sensorless estimates
// currently cover.
type Coverage struct {
	// Total is the number of managed nodes.
	Total int
	// Healthy nodes contribute to Snapshot and VerifyAccuracy (powered
	// on, not quarantined).
	Healthy int
	// Quarantined lists failed nodes in insertion order.
	Quarantined []string
	// PoweredOff lists administratively powered-down (healthy) nodes in
	// insertion order.
	PoweredOff []string
	// Degraded lists healthy nodes whose latest fold needed repair
	// (interpolated or dropped windows; see align.Quality).
	Degraded []string
}

// Full reports complete, clean coverage: every node healthy, no node
// running on repaired data. Deliberate power-downs do not break
// coverage; they are scheduling, not degradation.
func (cov Coverage) Full() bool {
	return len(cov.Quarantined) == 0 && len(cov.Degraded) == 0
}

// Coverage reports the cluster's current degradation state.
func (c *Cluster) Coverage() Coverage {
	cov := Coverage{}
	for _, n := range c.nodesView() {
		cov.Total++
		if n.Err() != nil {
			cov.Quarantined = append(cov.Quarantined, n.Name)
			continue
		}
		if !n.Powered() {
			cov.PoweredOff = append(cov.PoweredOff, n.Name)
			continue
		}
		cov.Healthy++
		if n.Quality().Degraded() {
			cov.Degraded = append(cov.Degraded, n.Name)
		}
	}
	return cov
}

// VerifyAccuracy returns the Equation 6 style relative error between the
// cluster's estimated and measured mean totals — the check an operator
// would run once before trusting the sensorless readings. Quarantined
// and powered-down nodes are excluded like in Snapshot; the error covers
// the surviving coverage only. The computation streams over the fleet
// (no O(nodes) slices), summing in insertion order so the result is
// bit-identical to the slice-based formulation.
func (c *Cluster) VerifyAccuracy() (float64, error) {
	nodes := c.nodesView()
	sum, count := 0.0, 0
	contributing, quarantined := 0, 0
	for _, n := range nodes {
		est, meas, ok, err := n.means()
		if err != nil {
			return 0, err
		}
		if !ok {
			if n.Err() != nil {
				quarantined++
			}
			continue
		}
		contributing++
		if meas == 0 {
			continue
		}
		sum += math.Abs(est-meas) / math.Abs(meas)
		count++
	}
	if contributing == 0 {
		if quarantined == len(nodes) && len(nodes) > 0 {
			return 0, fmt.Errorf("%w: all %d nodes quarantined", ErrNodeFailed, len(nodes))
		}
		return 0, stats.ErrEmpty
	}
	if count == 0 {
		return 0, stats.ErrEmpty
	}
	return sum / float64(count) * 100, nil
}
