package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"caqe/internal/metrics"
	"caqe/internal/preference"
	"caqe/internal/run"
)

// ShardQuery is one scattered query's leg on one shard.
type ShardQuery interface {
	// Gather consumes the shard's result stream to completion and returns
	// the emissions as the shard numbered them. An error means the gathered set
	// may be incomplete (stream lost, coalesced, or ctx done); whatever was
	// gathered is still returned — every emission a shard delivers is a
	// guaranteed-final local result, so partial gathers remain sound, just
	// not exhaustive.
	Gather(ctx context.Context) ([]run.Emission, error)
	// Cancel asks the shard to cancel this query. Its stream then ends
	// early with whatever was already delivered.
	Cancel() error
}

// ShardConn is a coordinator's transport to one shard worker: an in-process
// session (InProcConn) or a remote caqe-serve node (HTTPConn). It knows
// nothing of the topology: shard-local query and row IDs pass through
// untranslated. Submit may be called from multiple goroutines.
type ShardConn interface {
	Submit(spec QuerySpec) (ShardQuery, error)
	Close() error
}

// retryCounter is implemented by transports that retry submissions
// (HTTPConn); the coordinator surfaces the count in its stats.
type retryCounter interface{ Retries() int64 }

// ErrCoordinatorClosed is returned by Submit after Close began draining.
var ErrCoordinatorClosed = errors.New("cluster: coordinator closed")

// ErrScatterFailed is returned by Submit when every shard rejected the
// submission — the cluster is effectively unavailable for new work.
var ErrScatterFailed = errors.New("cluster: scatter rejected by every shard")

// CoordinatorConfig configures a scatter–gather coordinator.
type CoordinatorConfig struct {
	// Conns are the shard transports; Conns[i] reaches shard i — the row ID
	// tables, the merge fold order and the determinism rules depend on it.
	Conns []ShardConn
	// RIDs translates each shard's local row IDs of R to global ones
	// (ShardMap.Table(rows)); nil means identity, the single-shard case.
	RIDs [][]int
	// GatherTimeout bounds each query's gather phase; 0 means no bound
	// (shard streams end when the query completes or is cancelled).
	GatherTimeout time.Duration
}

// Coordinator scatters session queries to N shard workers, gathers their
// local-skyline streams, and runs the final dominance-merge pass before
// exposing each query's exact global result set. Merge comparisons are the
// only work charged on the coordinator's own clock; shard executors remain
// byte-identical to unsharded runs over their partitions.
type Coordinator struct {
	conns         []ShardConn
	rids          [][]int
	gatherTimeout time.Duration
	gatherSeconds *metrics.Histogram

	mu        sync.Mutex
	clock     *metrics.Clock
	queries   []*Handle
	shards    []ShardStat
	partials  int64
	mergeCmps int64
	closed    bool
	wg        sync.WaitGroup
}

// NewCoordinator validates the topology and returns a coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Conns) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard connection")
	}
	if cfg.RIDs != nil && len(cfg.RIDs) != len(cfg.Conns) {
		return nil, fmt.Errorf("cluster: row ID tables for %d shards, %d connections", len(cfg.RIDs), len(cfg.Conns))
	}
	c := &Coordinator{
		conns:         cfg.Conns,
		rids:          cfg.RIDs,
		gatherTimeout: cfg.GatherTimeout,
		gatherSeconds: metrics.NewHistogram(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 30),
		clock:         metrics.NewClock(),
		shards:        make([]ShardStat, len(cfg.Conns)),
	}
	for i := range c.shards {
		c.shards[i].Shard = i
	}
	return c, nil
}

// GatherSeconds is the wall-clock gather+merge latency histogram (one
// observation per query), for metrics exposition.
func (c *Coordinator) GatherSeconds() *metrics.Histogram { return c.gatherSeconds }

// Handle tracks one scattered query at the coordinator: its per-shard legs,
// gather state and, once Done is closed, the merged global result set.
type Handle struct {
	id   int
	name string
	pref preference.Subspace
	c    *Coordinator
	legs []ShardQuery // by shard; nil where scatter failed
	done chan struct{}

	mu        sync.Mutex
	state     string // running | done | partial | cancelled
	cancelled bool
	failed    []int // shard ids whose scatter or gather failed
	results   []Candidate
	merge     MergeStats
}

// ID returns the coordinator-assigned query id.
func (h *Handle) ID() int { return h.id }

// Name returns the query name.
func (h *Handle) Name() string { return h.name }

// State returns running, done, partial or cancelled.
func (h *Handle) State() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// Done is closed once the gather and merge phases finished (also after
// cancellation).
func (h *Handle) Done() <-chan struct{} { return h.done }

// Wait blocks until the query is done or ctx expires.
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case <-h.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Results returns the merged global result set in deterministic (virtual
// time, shard id, rid, tid) order, the merge statistics, and the shards
// that failed (non-empty means the set is partial). Valid after Done.
func (h *Handle) Results() ([]Candidate, MergeStats, []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.results, h.merge, h.failed
}

// Cancel propagates cancellation to every shard leg. The gather still
// completes with whatever the shards delivered; the final state is
// cancelled.
func (h *Handle) Cancel() {
	h.mu.Lock()
	if h.cancelled {
		h.mu.Unlock()
		return
	}
	h.cancelled = true
	legs := h.legs
	h.mu.Unlock()
	for _, leg := range legs {
		if leg != nil {
			_ = leg.Cancel()
		}
	}
}

// Submit scatters one query to every shard and starts its gather. It
// returns an error only when no shard accepted the submission (the
// wrapped error is the first shard's); accepted-by-some submissions
// proceed and surface the failed shards as a partial result.
func (c *Coordinator) Submit(spec QuerySpec) (*Handle, error) {
	q, err := spec.Query()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrCoordinatorClosed
	}
	c.mu.Unlock()

	h := &Handle{
		name:  q.Name,
		pref:  q.Pref,
		c:     c,
		legs:  make([]ShardQuery, len(c.conns)),
		done:  make(chan struct{}),
		state: "running",
	}

	// Scatter concurrently; each shard leg succeeds or fails on its own.
	errs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i, conn := range c.conns {
		wg.Add(1)
		go func(i int, conn ShardConn) {
			defer wg.Done()
			h.legs[i], errs[i] = conn.Submit(spec)
		}(i, conn)
	}
	wg.Wait()

	var firstErr error
	accepted := 0
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %d: %w", i, err)
			}
			h.failed = append(h.failed, i)
			continue
		}
		accepted++
	}
	if accepted == 0 {
		return nil, fmt.Errorf("%w (%d shards; first: %v)", ErrScatterFailed, len(c.conns), firstErr)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		h.Cancel()
		return nil, ErrCoordinatorClosed
	}
	h.id = len(c.queries)
	c.queries = append(c.queries, h)
	for i, err := range errs {
		if err != nil {
			c.shards[i].Failures++
		} else {
			c.shards[i].Scattered++
		}
	}
	c.wg.Add(1)
	c.mu.Unlock()

	go c.gather(h)
	return h, nil
}

// Query returns the handle with the given id.
func (c *Coordinator) Query(id int) (*Handle, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.queries) {
		return nil, false
	}
	return c.queries[id], true
}

// gather drains every shard leg, merges the local skylines under the
// coordinator clock, and publishes the result on the handle.
func (c *Coordinator) gather(h *Handle) {
	defer c.wg.Done()
	start := time.Now()
	ctx := context.Background()
	if c.gatherTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.gatherTimeout)
		defer cancel()
	}

	results := make([][]run.Emission, len(c.conns))
	gerrs := make([]error, len(c.conns))
	var wg sync.WaitGroup
	for i, leg := range h.legs {
		if leg == nil {
			continue
		}
		wg.Add(1)
		go func(i int, leg ShardQuery) {
			defer wg.Done()
			results[i], gerrs[i] = leg.Gather(ctx)
		}(i, leg)
	}
	wg.Wait()

	var gatherFailed []int
	byShard := make([][]Candidate, len(c.conns))
	for i := range c.conns {
		if h.legs[i] == nil {
			continue // scatter failure, already recorded
		}
		failed := gerrs[i] != nil
		cands := make([]Candidate, 0, len(results[i]))
		for _, e := range results[i] {
			// Shard-local query ids differ across shards (each session
			// numbers its own submissions); the coordinator id is the one
			// identity of the merged stream. Row IDs of R are shard-local
			// too, and this is the one place they become global.
			e.Query = h.id
			if c.rids != nil {
				if e.RID < 0 || e.RID >= len(c.rids[i]) {
					failed = true // not a row of this shard's partition
					continue
				}
				e.RID = c.rids[i][e.RID]
			}
			cands = append(cands, Candidate{Shard: i, Emission: e})
		}
		if failed {
			gatherFailed = append(gatherFailed, i)
		}
		byShard[i] = cands
	}

	// Merge under the coordinator lock: the clock is shared across
	// concurrently gathering queries. Shard sessions run the CAQE strategy.
	kern := preference.NewKernel(h.pref)
	c.mu.Lock()
	surv, mst := Merge(&kern, byShard, c.clock, nil, "CAQE", h.id)
	c.mergeCmps += mst.Cmps
	for i := range c.conns {
		if h.legs[i] != nil {
			c.shards[i].Gathered += int64(len(results[i]))
		}
	}
	for _, i := range gatherFailed {
		c.shards[i].Failures++
	}
	// h.failed holds the scatter failures, fixed since Submit.
	partial := len(h.failed)+len(gatherFailed) > 0
	if partial {
		c.partials++
	}
	c.mu.Unlock()
	c.gatherSeconds.Observe(time.Since(start).Seconds())

	h.mu.Lock()
	h.failed = append(h.failed, gatherFailed...)
	h.results, h.merge = surv, mst
	switch {
	case h.cancelled:
		h.state = "cancelled"
	case partial:
		h.state = "partial"
	default:
		h.state = "done"
	}
	h.mu.Unlock()
	close(h.done)
}

// ShardStat is one shard's scatter/gather accounting.
type ShardStat struct {
	Shard     int   `json:"shard"`
	Scattered int64 `json:"scattered"` // accepted submissions
	Gathered  int64 `json:"gathered"`  // emissions gathered
	Failures  int64 `json:"failures"`  // scatter or gather failures
	Retries   int64 `json:"retries"`   // transport submit retries
}

// QueryStat summarizes one coordinated query.
type QueryStat struct {
	ID           int        `json:"id"`
	Name         string     `json:"name"`
	State        string     `json:"state"`
	Results      int        `json:"results"`
	FailedShards []int      `json:"failedShards,omitempty"`
	Merge        MergeStats `json:"merge"`
}

// CoordStats is the coordinator's /stats payload.
type CoordStats struct {
	Shards    []ShardStat      `json:"shards"`
	Queries   []QueryStat      `json:"queries"`
	Submitted int              `json:"submitted"`
	Open      int              `json:"open"` // queries still gathering
	Partials  int64            `json:"partials"`
	MergeCmps int64            `json:"mergeCmps"`
	Counters  metrics.Counters `json:"counters"` // coordinator clock (merge work only)
	Draining  bool             `json:"draining"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	st := CoordStats{
		Shards:    append([]ShardStat(nil), c.shards...),
		Submitted: len(c.queries),
		Partials:  c.partials,
		MergeCmps: c.mergeCmps,
		Counters:  c.clock.Counters(),
		Draining:  c.closed,
	}
	queries := append([]*Handle(nil), c.queries...)
	c.mu.Unlock()
	for i, conn := range c.conns {
		if rc, ok := conn.(retryCounter); ok {
			st.Shards[i].Retries = rc.Retries()
		}
	}
	for _, h := range queries {
		h.mu.Lock()
		qs := QueryStat{
			ID: h.id, Name: h.name, State: h.state,
			Results: len(h.results), Merge: h.merge,
			FailedShards: append([]int(nil), h.failed...),
		}
		h.mu.Unlock()
		if qs.State == "running" {
			st.Open++
		}
		st.Queries = append(st.Queries, qs)
	}
	return st
}

// Close drains the coordinator: no new submissions are accepted, every
// in-flight gather runs to completion, then the shard connections close.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
	if already {
		return nil
	}
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
