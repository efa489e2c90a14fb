// Package session implements online, long-lived CAQE executions: a Session
// wraps the engine's stepping loop (core.Exec) with a lifecycle API — open
// over loaded relations, submit queries while the workload is already
// running, cancel them, stream each query's guaranteed-final results — so
// the batch engine becomes a decision-support service.
//
// A session owns one executor goroutine. Every mutation (submit, cancel,
// close) is a closure handed to that goroutine over an unbuffered channel
// and executed between scheduling steps, so the engine state needs no
// locking and the virtual clock stays strictly serial. Result delivery
// never blocks the executor: each query's emissions go to a per-handle ring
// — bounded by Config.Backpressure — drained by the handle's own pump
// goroutine.
//
// Queries submitted before execution starts form the initial workload and
// take the exact batch path — a session whose queries are all
// pre-submitted produces a report byte-identical to caqe.Run. Queries
// submitted later are admitted mid-run (core.Exec.Admit) with their
// contract clock anchored at the arrival virtual time, and never perturb
// results already emitted.
package session

import (
	"errors"
	"fmt"
	"log"
	"runtime/debug"

	"caqe/internal/contract"
	"caqe/internal/core"
	"caqe/internal/join"
	"caqe/internal/metrics"
	"caqe/internal/run"
	"caqe/internal/tuple"
	"caqe/internal/workload"
)

// Sentinel errors of the admission lifecycle.
var (
	// ErrClosed is returned by every operation on a closed session.
	ErrClosed = errors.New("session: closed")
	// ErrDraining rejects submissions while the session drains for shutdown.
	ErrDraining = errors.New("session: draining, not accepting queries")
	// ErrAdmissionFull rejects submissions beyond the configured concurrent
	// admission cap (HTTP servers map it to 429).
	ErrAdmissionFull = errors.New("session: concurrent admission limit reached")
	// ErrSessionFull rejects a submission when every engine query slot holds
	// a live query, so none can be reclaimed for the new one. Retired slots
	// (finished or cancelled queries) are recycled, so there is no lifetime
	// query limit — with MaxConcurrent at or below the engine's
	// representation limit this is a defensive path (HTTP servers map it to
	// 409).
	ErrSessionFull = errors.New("session: all query slots hold live queries")
	// ErrUnknownQuery is returned for operations on query IDs never issued.
	ErrUnknownQuery = errors.New("session: unknown query")
	// ErrOverloaded sheds submissions while the aggregate buffered-emission
	// count is above Config.GlobalHighWater — consumers are not draining
	// their streams fast enough for the session to take on more delivery
	// work (HTTP servers map it to 503).
	ErrOverloaded = errors.New("session: delivery buffers over the global high-water mark")
)

// Config describes an online session: the loaded relations, the shared
// output-space vocabulary every query draws from, and service limits.
type Config struct {
	// R and T are the session's base relations, fixed for its lifetime.
	R, T *tuple.Relation
	// JoinConds is the catalogue of join conditions queries may reference
	// (by index). Conditions no query uses cost nothing until first used.
	JoinConds []join.EquiJoin
	// OutDims is the shared output space; query preferences index into it.
	OutDims []join.MapFunc
	// Engine tunes the underlying CAQE engine; its Tracer receives the
	// session's structured execution trace.
	Engine core.Options
	// MaxConcurrent caps the number of simultaneously open (admitted, not
	// yet finished) queries; 0 means workload.MaxQueries. Values outside
	// [0, workload.MaxQueries] are rejected by Open — the engine represents
	// query sets as 64-bit masks, so a larger cap cannot be honored and
	// silently clamping it would misstate the service limit.
	MaxConcurrent int
	// OnFirstResult, when set, is called once per query the moment its
	// first result enters the delivery buffer, with the session query ID
	// and the real time elapsed since submission (time-to-first-result).
	// Called on the executor goroutine: keep it cheap and non-blocking.
	OnFirstResult func(id int, seconds float64)
	// Backpressure bounds every handle's delivery buffer between the
	// executor and its stream consumer; the zero value keeps buffers
	// unbounded. Backpressure acts strictly on the delivery side — the
	// executor, virtual clock and report are untouched by any setting, so
	// a pre-submitted session stays byte-identical to a batch run at any
	// high-water mark.
	Backpressure Backpressure
	// GlobalHighWater, when positive, caps the aggregate buffered-emission
	// count across all handles: submissions arriving while the total is at
	// or above it are shed with ErrOverloaded until consumers drain.
	GlobalHighWater int
}

// queryState is the lifecycle phase of one submitted query.
type queryState string

const (
	// StateQueued: submitted before the session started executing.
	StateQueued queryState = "queued"
	// StateRunning: part of the live execution.
	StateRunning queryState = "running"
	// StateDone: all results delivered, stream closed.
	StateDone queryState = "done"
	// StateCancelled: retired by Cancel; stream closed, no retractions.
	StateCancelled queryState = "cancelled"
	// StateLagging: running, but the stream consumer is behind — the
	// delivery buffer hit its high-water mark and emissions are being
	// coalesced. A reported sub-state of StateRunning (Handle.State and
	// Stats rows show it; the internal lifecycle remains running).
	StateLagging queryState = "lagging"
)

// Session is one online CAQE execution. All methods are safe for
// concurrent use from any goroutine.
type Session struct {
	cfg  Config
	cmds chan func()
	// closed is closed when the executor goroutine has exited; closeErr is
	// set before that.
	closed chan struct{}

	// Everything below is owned by the executor goroutine.
	started  bool
	draining bool
	clock    *metrics.Clock
	rep      *run.Report
	x        *core.Exec
	w        *workload.Workload
	handles  []*Handle // by session query ID (== submission order)
	byLocal  []*Handle // by engine-local query index (current slot occupant)
	byReport []*Handle // by report query index (never reused; routes delivery)
	waiters  []chan struct{}

	// Base-table mutation state: the FIFO of accepted-but-unapplied
	// mutations (head-gated by its anchor), accumulated mutation stats,
	// the next row ID per relation (appends reserve IDs at accept time so
	// callers learn them immediately), and the IDs already deleted or
	// accepted for deletion.
	muts   []pendingMutation
	mstats MutationStats
	nextID [2]int
	gone   [2]map[int]bool
}

// pendingMutation is one accepted mutation waiting for its anchor.
type pendingMutation struct {
	tab core.Table
	m   Mutation
	ids []int // row IDs reserved for the append portion
}

// Open validates the configuration and starts the session's executor.
// Execution itself begins lazily: queries submitted before Start form the
// initial workload and run exactly as a batch caqe.Run would.
func Open(cfg Config) (*Session, error) {
	if cfg.R == nil || cfg.T == nil {
		return nil, fmt.Errorf("session: nil input relation")
	}
	if len(cfg.JoinConds) == 0 {
		return nil, fmt.Errorf("session: no join conditions")
	}
	if len(cfg.OutDims) == 0 {
		return nil, fmt.Errorf("session: no output dimensions")
	}
	for i, f := range cfg.OutDims {
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("session: output dimension %d: %w", i, err)
		}
	}
	if cfg.MaxConcurrent < 0 || cfg.MaxConcurrent > workload.MaxQueries {
		return nil, fmt.Errorf("session: MaxConcurrent %d outside [0, %d] (0 selects the engine limit)",
			cfg.MaxConcurrent, workload.MaxQueries)
	}
	if cfg.MaxConcurrent == 0 {
		cfg.MaxConcurrent = workload.MaxQueries
	}
	switch cfg.Backpressure.policy() {
	case PolicyBlockExecutorNever, PolicyDisconnectSlow:
	default:
		return nil, fmt.Errorf("session: unknown delivery policy %q", cfg.Backpressure.Policy)
	}
	if cfg.Backpressure.HighWater < 0 {
		cfg.Backpressure.HighWater = 0
	}
	s := &Session{
		cfg:    cfg,
		cmds:   make(chan func()),
		closed: make(chan struct{}),
		nextID: [2]int{cfg.R.Len(), cfg.T.Len()},
		gone:   [2]map[int]bool{{}, {}},
	}
	go s.loop()
	return s, nil
}

// do runs fn on the executor goroutine and waits for it. A command the
// executor died in (see loop's recover) never completes; its caller gets
// ErrClosed like everyone arriving later.
func (s *Session) do(fn func()) error {
	done := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(done) }:
	case <-s.closed:
		return ErrClosed
	}
	select {
	case <-done:
	case <-s.closed:
		select {
		case <-done: // completed before an orderly shutdown
		default:
			return ErrClosed
		}
	}
	return nil
}

// loop is the executor: commands take priority, then one scheduling step;
// when neither is available it blocks for the next command. On drain it
// steps until no work remains, finalizes, and exits.
//
// A panic on this goroutine — an engine invariant slip, a faulty
// OnFirstResult callback — must not take the process and every other
// stream in it down: it is logged with its stack, every open query's
// stream is ended (state cancelled: what was delivered stands, the rest
// will not come), and the session closes, so later calls return ErrClosed.
// The engine state is not touched again.
func (s *Session) loop() {
	defer close(s.closed)
	defer func() {
		if p := recover(); p != nil {
			log.Printf("session: executor panic, closing the session: %v\n%s", p, debug.Stack())
			for _, h := range s.handles {
				if st := h.state(); st != StateDone && st != StateCancelled {
					h.finish(StateCancelled)
				}
			}
		}
	}()
	for {
		select {
		case fn := <-s.cmds:
			fn()
			s.sweep()
			continue
		default:
		}
		s.applyDueMutations(false)
		if s.x != nil && s.x.Step() {
			s.sweep()
			continue
		}
		// Step returned false: the engine just flushed its remaining final
		// results (or has not started); completion states may have changed.
		// An idle executor cannot advance the virtual clock on its own, so
		// a mutation still waiting on a future anchor applies now — which
		// may revive work and resume stepping.
		if s.applyDueMutations(true) {
			s.sweep()
			continue
		}
		s.sweep()
		if s.draining {
			s.shutdown()
			return
		}
		fn := <-s.cmds
		fn()
		s.sweep()
	}
}

// sweep closes the stream of every running query that can receive no
// further results, and releases Wait callers once nothing is in flight.
// Standing (continuous) queries are exempt until the session drains: they
// stay open so later base-table mutations can stream further results.
// Every query that does finish is sealed in the engine first, so a stream
// that reported done can never owe results to a later mutation.
func (s *Session) sweep() {
	if s.x != nil {
		for _, h := range s.byLocal {
			if h == nil || h.local < 0 || h.state() != StateRunning || !s.x.QueryDone(h.local) {
				continue
			}
			if h.query.Standing && !s.draining {
				continue
			}
			_ = s.x.Seal(h.local)
			h.finish(StateDone)
		}
	}
	if len(s.waiters) > 0 && s.open() == 0 {
		for _, ch := range s.waiters {
			close(ch)
		}
		s.waiters = nil
	}
}

// shutdown finalizes the report and closes every remaining stream.
func (s *Session) shutdown() {
	if s.x != nil {
		s.x.Finish()
	}
	for _, h := range s.handles {
		switch h.state() {
		case StateDone, StateCancelled:
		default:
			h.finish(StateDone)
		}
	}
}

// buffered sums the emissions currently sitting in delivery buffers across
// every handle — the quantity the global high-water mark sheds load on.
func (s *Session) buffered() int {
	n := 0
	for _, h := range s.handles {
		n += h.StreamStats().Buffered
	}
	return n
}

// open counts queries admitted and not yet finished.
func (s *Session) open() int {
	n := 0
	for _, h := range s.handles {
		switch h.state() {
		case StateQueued, StateRunning:
			n++
		}
	}
	return n
}

// Submit admits one query. Before the session starts executing, the query
// joins the initial (batch-identical) workload; afterwards it is admitted
// into the running execution with its contract anchored at the arrival
// virtual time, so "deliver within 30s" means 30 virtual seconds from
// admission, not from session start. estTotal optionally supplies the
// expected final result cardinality for cardinality-based contracts (0 if
// unknown). The returned handle streams the query's guaranteed-final
// results.
func (s *Session) Submit(q workload.Query, estTotal int) (*Handle, error) {
	var h *Handle
	var err error
	derr := s.do(func() { h, err = s.submit(q, estTotal) })
	if derr != nil {
		return nil, derr
	}
	return h, err
}

func (s *Session) submit(q workload.Query, estTotal int) (*Handle, error) {
	if s.draining {
		return nil, ErrDraining
	}
	if s.open() >= s.cfg.MaxConcurrent {
		return nil, ErrAdmissionFull
	}
	if s.cfg.GlobalHighWater > 0 && s.buffered() >= s.cfg.GlobalHighWater {
		return nil, ErrOverloaded
	}
	if err := q.Validate(len(s.cfg.JoinConds), len(s.cfg.OutDims)); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}

	h := newHandle(len(s.handles), q.Name, s.cfg.Backpressure)
	if !s.started {
		h.query, h.estTotal = q, estTotal
		h.setState(StateQueued)
		s.handles = append(s.handles, h)
		return h, nil
	}

	// Mid-run admission: anchor the contract at the arrival virtual time.
	// The handle registers under its (deterministic) report index before
	// Admit runs, because admission itself can emit already-final results
	// for the new query. The local index is only known afterwards — the
	// engine recycles retired slots once all 64 are occupied.
	h.query, h.estTotal = q, estTotal
	h.arrival = s.x.Now()
	q.Contract = contract.Anchored(q.Contract, h.arrival)
	h.repIdx = s.x.NextReportIndex()
	h.setState(StateRunning)
	for len(s.byReport) <= h.repIdx {
		s.byReport = append(s.byReport, nil)
	}
	s.byReport[h.repIdx] = h
	local, err := s.x.Admit(q, estTotal)
	if err != nil {
		s.byReport[h.repIdx] = nil
		if errors.Is(err, core.ErrQuerySlotsExhausted) {
			return nil, ErrSessionFull
		}
		return nil, err
	}
	if got := s.x.ReportIndex(local); got != h.repIdx {
		s.byReport[h.repIdx] = nil
		return nil, fmt.Errorf("session: engine assigned report index %d, expected %d", got, h.repIdx)
	}
	h.local = local
	for len(s.byLocal) <= local {
		s.byLocal = append(s.byLocal, nil)
	}
	if old := s.byLocal[local]; old != nil && old != h {
		old.local = -1 // slot reclaimed; the old query's results live on in the report
	}
	s.byLocal[local] = h
	s.handles = append(s.handles, h)
	return h, nil
}

// Start begins execution over every query submitted so far (the batch
// path). It is idempotent; a session with no submissions yet starts on the
// next Submit instead. Callers that never invoke Start get the same
// behavior on the first call to Close or Wait.
func (s *Session) Start() error {
	var err error
	derr := s.do(func() { err = s.start() })
	if derr != nil {
		return derr
	}
	return err
}

func (s *Session) start() error {
	if s.started {
		return nil
	}
	w := &workload.Workload{
		JoinConds: s.cfg.JoinConds,
		OutDims:   s.cfg.OutDims,
	}
	var totals []int
	for _, h := range s.handles {
		if h.state() != StateQueued {
			continue
		}
		h.local = len(w.Queries)
		h.repIdx = h.local // initial queries: report order is submission order
		w.Queries = append(w.Queries, h.query)
		totals = append(totals, h.estTotal)
		s.byLocal = append(s.byLocal, h)
		s.byReport = append(s.byReport, h)
	}
	if len(w.Queries) == 0 {
		s.byLocal, s.byReport = nil, nil
		return nil // nothing to run yet; first Submit triggers the start
	}
	eng, err := core.New(w, s.cfg.R, s.cfg.T, s.cfg.Engine)
	if err != nil {
		s.byLocal, s.byReport = nil, nil
		return err
	}
	s.w = w
	s.clock = s.cfg.Engine.NewClock()
	s.rep = run.NewReport("CAQE", w, totals)
	s.rep.OnEmit = s.deliver
	s.rep.StartTrace(s.cfg.Engine.Tracer)
	x, err := eng.StartExec(s.clock, s.rep)
	if err != nil {
		s.byLocal, s.byReport = nil, nil
		return err
	}
	s.x = x
	s.started = true
	for _, h := range s.byLocal {
		h.setState(StateRunning)
	}
	return nil
}

// deliver routes one emission to its query's stream (executor goroutine).
// Emissions carry report query indices, which unlike engine-local slots are
// never reused — successive occupants of one recycled slot stay distinct.
func (s *Session) deliver(e run.Emission) {
	h := s.byReport[e.Query]
	if h.markFirstResult() && s.cfg.OnFirstResult != nil {
		s.cfg.OnFirstResult(h.id, h.TTFRSeconds())
	}
	h.push(e)
}

// Cancel retires a query: queued queries leave the pending workload,
// running ones are cancelled inside the engine (regions reclaimed, tracker
// finalized at the cancel time). Results already delivered stand. Idempotent
// for already-finished queries.
func (s *Session) Cancel(id int) error {
	var err error
	derr := s.do(func() { err = s.cancel(id) })
	if derr != nil {
		return derr
	}
	return err
}

func (s *Session) cancel(id int) error {
	if id < 0 || id >= len(s.handles) {
		return ErrUnknownQuery
	}
	h := s.handles[id]
	switch h.state() {
	case StateDone, StateCancelled:
		return nil
	case StateQueued:
		h.finish(StateCancelled)
		return nil
	}
	if h.local >= 0 {
		if err := s.x.Cancel(h.local); err != nil {
			return err
		}
	}
	h.finish(StateCancelled)
	return nil
}

// Query returns the handle of a previously submitted query.
func (s *Session) Query(id int) (*Handle, error) {
	var h *Handle
	derr := s.do(func() {
		if id >= 0 && id < len(s.handles) {
			h = s.handles[id]
		}
	})
	if derr != nil {
		return nil, derr
	}
	if h == nil {
		return nil, ErrUnknownQuery
	}
	return h, nil
}

// QueryStats is one query's row in a Stats snapshot. Buffered and Coalesced
// are always present — a zero is as load-bearing as any other value, since
// consumers verify the delivery invariant delivered + Σlag == emissions
// from these fields.
type QueryStats struct {
	ID           int     `json:"id"`
	Name         string  `json:"name"`
	State        string  `json:"state"`
	Arrival      float64 `json:"arrival"`            // virtual seconds at admission
	Delivered    int     `json:"delivered"`          // results streamed so far
	Satisfaction float64 `json:"satisfaction"`       // contract satisfaction so far
	Buffered     int     `json:"buffered"`           // emissions awaiting the consumer
	Coalesced    int64   `json:"coalesced"`          // emissions dropped from the stream
	TTFRSeconds  float64 `json:"ttfrSeconds"`        // real seconds to first result (0 until one lands)
	Standing     bool    `json:"standing,omitempty"` // continuous query: stays open across mutations
}

// DeliveryStats aggregates the delivery pipeline across every handle.
type DeliveryStats struct {
	Buffered    int   `json:"buffered"`    // emissions currently buffered, all handles
	HighWater   int   `json:"highWater"`   // max per-handle occupancy ever observed
	LagEvents   int64 `json:"lagEvents"`   // transitions into the lagging state
	Coalesced   int64 `json:"coalesced"`   // emissions coalesced out of streams
	Disconnects int64 `json:"disconnects"` // streams severed by PolicyDisconnectSlow
	Abandons    int64 `json:"abandons"`    // streams abandoned by their consumer
}

// Stats is a point-in-time view of the session.
type Stats struct {
	Now       float64          `json:"now"` // virtual seconds
	Started   bool             `json:"started"`
	Draining  bool             `json:"draining"`
	Open      int              `json:"open"` // admitted, not yet finished
	Submitted int              `json:"submitted"`
	Queries   []QueryStats     `json:"queries"`
	Delivery  DeliveryStats    `json:"delivery"`
	Counters  metrics.Counters `json:"counters"`
	Mutations MutationStats    `json:"mutations"`
}

// Stats snapshots the session between scheduling steps.
func (s *Session) Stats() (Stats, error) {
	var st Stats
	derr := s.do(func() { st = s.stats() })
	if derr != nil {
		return Stats{}, derr
	}
	return st, nil
}

func (s *Session) stats() Stats {
	st := Stats{
		Started:   s.started,
		Draining:  s.draining,
		Open:      s.open(),
		Submitted: len(s.handles),
		Mutations: s.mstats,
	}
	st.Mutations.Pending = len(s.muts)
	if s.x != nil {
		st.Now = s.x.Now()
		st.Counters = s.clock.Counters()
	}
	for _, h := range s.handles {
		ss := h.StreamStats()
		qs := QueryStats{
			ID:          h.id,
			Name:        h.name,
			State:       h.State(),
			Arrival:     h.arrival,
			Buffered:    ss.Buffered,
			Coalesced:   ss.Coalesced,
			TTFRSeconds: h.TTFRSeconds(),
			Standing:    h.query.Standing,
		}
		if h.state() != StateQueued && s.rep != nil && h.repIdx >= 0 && h.repIdx < len(s.rep.Trackers) {
			qs.Delivered = len(s.rep.PerQuery[h.repIdx])
			qs.Satisfaction = contract.AvgSatisfaction(s.rep.Trackers[h.repIdx])
		}
		st.Queries = append(st.Queries, qs)

		st.Delivery.Buffered += ss.Buffered
		if ss.HighWater > st.Delivery.HighWater {
			st.Delivery.HighWater = ss.HighWater
		}
		st.Delivery.LagEvents += ss.LagEvents
		st.Delivery.Coalesced += ss.Coalesced
		if ss.Disconnected {
			st.Delivery.Disconnects++
		}
		if ss.Abandoned {
			st.Delivery.Abandons++
		}
	}
	return st
}

// Close drains the session: execution continues until every admitted query
// has received its full result set, streams close, the report finalizes,
// and the executor exits. New submissions are rejected from the moment
// Close is called. Close blocks until the drain completes and is safe to
// call more than once.
func (s *Session) Close() error {
	_ = s.do(func() {
		s.draining = true
		if !s.started {
			_ = s.start() // flush queued queries through the batch path
		}
	})
	<-s.closed
	return nil
}

// Wait blocks until every currently admitted query has finished, without
// closing the session (a later Submit revives execution). It starts
// execution if queued queries are pending. Standing queries never finish
// on their own — with one open, Wait returns only after it is cancelled
// or the session closes.
func (s *Session) Wait() error {
	if err := s.Start(); err != nil {
		return err
	}
	ch := make(chan struct{})
	derr := s.do(func() {
		if s.open() == 0 {
			close(ch)
			return
		}
		s.waiters = append(s.waiters, ch)
	})
	if derr != nil {
		return derr
	}
	select {
	case <-ch:
		return nil
	case <-s.closed:
		return nil
	}
}

// Report exposes the session's execution report. Before Close completes
// the report is live and owned by the executor — call only after Close (or
// for read-only inspection in tests that know the executor is idle).
func (s *Session) Report() *run.Report {
	var rep *run.Report
	if err := s.do(func() { rep = s.rep }); err != nil {
		return s.rep
	}
	return rep
}
