package session

import (
	"sync"
	"time"

	"caqe/internal/run"
	"caqe/internal/workload"
)

// Backpressure bounds one handle's delivery buffer. Past the mark the
// executor never blocks and the execution report is untouched: the handle
// enters the lagging state, the oldest buffered emission is coalesced away
// for each new one, and the stream receives a lag notice (StreamEvent.Lag)
// carrying the coalesced count before delivery resumes. Memory stays
// O(HighWater): the buffer is a ring that never grows past the mark.
type Backpressure struct {
	// HighWater is the maximum number of emissions buffered per handle
	// between the executor and the consumer; 0 means unbounded (the
	// pre-backpressure semantics).
	HighWater int
}

// StreamEvent is one item of a handle's delivery stream: an emission, or —
// when Lag is positive — a notice that Lag emissions were coalesced out of
// the stream (dropped from delivery, never from the report) because the
// consumer fell behind the high-water mark.
type StreamEvent struct {
	Emission run.Emission
	Lag      int64
}

// StreamStats is a point-in-time view of one handle's delivery pipeline.
type StreamStats struct {
	Buffered  int   `json:"buffered"`            // emissions currently buffered
	HighWater int   `json:"highWater"`           // max simultaneously buffered so far
	Lagging   bool  `json:"lagging,omitempty"`   // over the mark with undelivered lag
	Coalesced int64 `json:"coalesced,omitempty"` // emissions dropped from the stream so far
	LagEvents int64 `json:"lagEvents,omitempty"` // transitions into the lagging state
	Abandoned bool  `json:"abandoned,omitempty"` // consumer called Abandon
}

// emitRing is the handle's delivery buffer: a ring of emissions. An
// emission's Out is allocated once, when the engine emits it, and is
// immutable from then on — the session's report holds the same slice for the
// session's life — so buffering and delivering a result copies the Emission
// value and never its coordinates. With limit > 0 the ring never holds more
// than limit entries: pushing into a full ring overwrites the oldest entry
// and counts it as coalesced. With limit == 0 it grows unboundedly.
type emitRing struct {
	limit int
	buf   []run.Emission
	start int // index of the oldest entry
	n     int
	lag   int64 // coalesced since the last drain
}

// push buffers one emission, reporting whether it displaced (coalesced) an
// older one.
func (r *emitRing) push(e run.Emission) bool {
	if r.limit > 0 && r.n == r.limit {
		r.buf[r.start] = e
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.lag++
		return true
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.start + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = e
	r.n++
	return false
}

// grow enlarges the ring (doubling, clamped to limit), linearizing the
// entries so start returns to zero.
func (r *emitRing) grow() {
	newCap := len(r.buf) * 2
	if newCap < 16 {
		newCap = 16
	}
	if r.limit > 0 && newCap > r.limit {
		newCap = r.limit
	}
	buf := make([]run.Emission, newCap)
	k := copy(buf, r.buf[r.start:])
	copy(buf[k:], r.buf[:r.start])
	r.buf, r.start = buf, 0
}

// drain appends every buffered emission to dst in delivery order, empties
// the ring, and returns the coalesced count accumulated since the previous
// drain (those losses happened strictly before the entries returned here).
func (r *emitRing) drain(dst []run.Emission) ([]run.Emission, int64) {
	lag := r.lag
	r.lag = 0
	end := r.start + r.n
	if end <= len(r.buf) {
		dst = append(dst, r.buf[r.start:end]...)
	} else {
		dst = append(dst, r.buf[r.start:]...)
		dst = append(dst, r.buf[:end-len(r.buf)]...)
	}
	r.start, r.n = 0, 0
	return dst, lag
}

// Handle is one submitted query's view of the session: identity, arrival
// time, lifecycle state and the stream of guaranteed-final results.
//
// The executor pushes emissions into a per-handle ring bounded by the
// session's Backpressure configuration and never blocks on a consumer; a
// per-handle pump goroutine (started by the first Events call) drains the
// ring into the public channel and closes it when the query can receive no
// further results.
type Handle struct {
	id        int
	name      string
	arrival   float64   // virtual seconds at admission (0 for initial queries)
	submitted time.Time // real time of submission (time-to-first-result base)

	// Executor-owned; query and estTotal only matter while queued. local is
	// the engine slot currently assigned to the query (-1 while queued, or
	// after the slot was reclaimed for a later query); repIdx is the
	// never-reused report index emissions are routed by.
	local    int
	repIdx   int
	query    workload.Query
	estTotal int
	ttfr     float64 // real seconds to first result; 0 until one lands

	mu        sync.Mutex
	st        queryState
	admitted  string // State as the command that admitted the query left it
	ring      emitRing
	closed    bool // stream complete: no further pushes
	lagging   bool
	abandoned bool  // no consumer will read again: no further pushes
	highWater int   // max ring occupancy observed
	lagEvents int64 // transitions into the lagging state
	coalesced int64 // emissions coalesced out of the stream, lifetime

	pumpOnce sync.Once
	out      chan StreamEvent
	signal   chan struct{} // 1-buffered nudge: buffer or closed changed
	dropped  chan struct{} // closed when the consumer abandons the stream
}

func newHandle(id int, name string, bp Backpressure) *Handle {
	h := &Handle{
		id:        id,
		name:      name,
		submitted: time.Now(),
		local:     -1,
		repIdx:    -1,
		st:        StateQueued,
		signal:    make(chan struct{}, 1),
		dropped:   make(chan struct{}),
	}
	h.ring.limit = bp.HighWater
	return h
}

// markFirstResult records the time-to-first-result on the first call and
// reports whether this call was the first (executor goroutine only).
func (h *Handle) markFirstResult() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ttfr != 0 {
		return false
	}
	h.ttfr = time.Since(h.submitted).Seconds()
	if h.ttfr <= 0 {
		h.ttfr = 1e-9 // clock granularity floor; 0 must keep meaning "none yet"
	}
	return true
}

// TTFRSeconds returns the real time, in seconds, between the query's
// submission and its first result entering the delivery buffer; 0 until a
// first result lands.
func (h *Handle) TTFRSeconds() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ttfr
}

// ID returns the query's session-wide identifier (its submission order).
func (h *Handle) ID() int { return h.id }

// Name returns the query's name as submitted.
func (h *Handle) Name() string { return h.name }

// Arrival returns the virtual time (seconds) at which the query was
// admitted; zero for queries that joined the initial workload.
func (h *Handle) Arrival() float64 { return h.arrival }

// State returns the query's current lifecycle state. A running query whose
// consumer is behind the high-water mark reports the lagging sub-state.
func (h *Handle) State() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.st == StateRunning && h.lagging {
		return string(StateLagging)
	}
	return string(h.st)
}

// AdmittedState returns the query's state as the executor command that
// admitted it left it: queued for a query waiting for the session to
// start, otherwise what its admission made of it, before any later step of
// the executor ran. Unlike State it does not depend on when it is read.
func (h *Handle) AdmittedState() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.admitted
}

// markAdmitted records the current state as the admitted one (executor
// goroutine, at the end of the command that admits the query).
func (h *Handle) markAdmitted() {
	st := h.State()
	h.mu.Lock()
	h.admitted = st
	h.mu.Unlock()
}

func (h *Handle) state() queryState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

func (h *Handle) setState(st queryState) {
	h.mu.Lock()
	h.st = st
	h.mu.Unlock()
}

// StreamStats snapshots the handle's delivery pipeline.
func (h *Handle) StreamStats() StreamStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return StreamStats{
		Buffered:  h.ring.n,
		HighWater: h.highWater,
		Lagging:   h.lagging,
		Coalesced: h.coalesced,
		LagEvents: h.lagEvents,
		Abandoned: h.abandoned,
	}
}

// push appends one emission to the stream (executor goroutine only). It
// never blocks: past the high-water mark it coalesces the oldest buffered
// emission. A closed or abandoned stream takes no more emissions.
func (h *Handle) push(e run.Emission) {
	h.mu.Lock()
	if h.closed || h.abandoned {
		h.mu.Unlock()
		return
	}
	if h.ring.push(e) {
		h.coalesced++
		if !h.lagging {
			h.lagging = true
			h.lagEvents++
		}
	}
	if h.ring.n > h.highWater {
		h.highWater = h.ring.n
	}
	h.mu.Unlock()
	h.nudge()
}

// finish marks the stream complete in the given terminal state.
func (h *Handle) finish(st queryState) {
	h.mu.Lock()
	h.st = st
	h.closed = true
	h.mu.Unlock()
	h.nudge()
}

func (h *Handle) nudge() {
	select {
	case h.signal <- struct{}{}:
	default:
	}
}

// Events returns the query's delivery stream: guaranteed-final emissions
// interleaved with lag notices (StreamEvent.Lag > 0) wherever the consumer
// fell behind and emissions were coalesced away. The channel closes when
// the query has received its full result set or was cancelled, or once
// the consumer abandons it. The stream is single-consumer: all calls
// return the same channel. An emission's Out is the slice the session's
// report holds: read-only.
func (h *Handle) Events() <-chan StreamEvent {
	h.pumpOnce.Do(func() {
		h.out = make(chan StreamEvent)
		go h.pump()
	})
	return h.out
}

// Abandon tells the pump no consumer will read the stream again, unblocking
// and terminating it (the events channel closes), and releases the
// delivery buffer: later emissions are not buffered, so an abandoned
// stream counts nothing against the session's global high-water mark.
// Sessions serving network clients call this when the client disconnects;
// the query itself keeps running until cancelled.
func (h *Handle) Abandon() {
	h.mu.Lock()
	if !h.abandoned {
		h.abandoned = true
		h.ring = emitRing{}
		h.lagging = false
		close(h.dropped)
	}
	h.mu.Unlock()
}

// send delivers one event, returning false — after closing the stream —
// when the consumer abandoned it.
func (h *Handle) send(ev StreamEvent) bool {
	select {
	case h.out <- ev:
		return true
	case <-h.dropped:
		close(h.out)
		return false
	}
}

func (h *Handle) pump() {
	var batch []run.Emission
	var lag int64
	for {
		h.mu.Lock()
		batch, lag = h.ring.drain(batch[:0])
		h.lagging = false // buffer empty: consumer is caught up again
		done := h.closed
		h.mu.Unlock()
		if lag > 0 {
			// The coalesced emissions predate everything drained just now,
			// so the notice goes out ahead of the batch.
			if !h.send(StreamEvent{Lag: lag}) {
				return
			}
		}
		for _, e := range batch {
			if !h.send(StreamEvent{Emission: e}) {
				return
			}
		}
		if done {
			// Everything buffered before the close flag was set has been
			// forwarded; no further pushes can happen.
			h.mu.Lock()
			empty := h.ring.n == 0
			h.mu.Unlock()
			if empty {
				close(h.out)
				return
			}
			continue
		}
		select {
		case <-h.signal:
		case <-h.dropped:
			close(h.out)
			return
		}
	}
}
