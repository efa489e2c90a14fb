package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"caqe"
	"caqe/internal/baseline"
	"caqe/internal/cluster"
	"caqe/internal/datagen"
	"caqe/internal/preference"
)

// serveSpec sizes one serve workload and fixes the daemon's dataset flags.
type serveSpec struct {
	n, dims, keys int
	sel           float64
	maxConcurrent int
	clients       int // closed-loop clients, one keep-alive connection each
	cycles        int // per client, at the reference length
	warmup        int // untimed queries per set-up, over all clients
	mutate        bool
	// queryJCs is how many of the join conditions ad-hoc queries draw from.
	// serve-mutate keeps to the standing query's condition: at this commit
	// a query admitted on a condition that no query held open while rows
	// were appended never sees those rows' join results (it is served from
	// the results retained before the append), which the output check
	// reports as a wrong result set.
	queryJCs int
}

var serveSpecs = map[string]serveSpec{
	"serve-stream": {n: 2000, dims: 4, keys: 2, sel: 0.01, maxConcurrent: 16, clients: 2, cycles: 2200, warmup: 200, queryJCs: 2},
	"serve-mutate": {n: 2000, dims: 4, keys: 2, sel: 0.01, maxConcurrent: 16, clients: 1, cycles: 740, warmup: 200, mutate: true, queryJCs: 1},
}

// deadlineBase scales the deadline contracts of the query mix, in contract
// seconds (real seconds under the daemon's wall clock). caqe-loadgen's
// default of 30 s is never missed by a query that takes milliseconds, so
// satisfaction would read 1 whatever the engine did; a base of the order
// of a query's completion time keeps the metric sensitive.
const deadlineBase = 0.004

// probeTimeout bounds the wait for a mutation's probe result on the
// standing stream; past it the mutation counts as failed.
const probeTimeout = 5 * time.Second

func (s serveSpec) sized(cfg config) serveSpec {
	s.cycles = cfg.scale(s.cycles)
	if cfg.traced {
		s.cycles = (s.cycles + 4) / 5
	}
	if cfg.quick {
		s.n, s.cycles, s.warmup = 400, 40, 10
	}
	return s
}

// connections is how many client connections the workload holds open at
// once (the standing stream of serve-mutate is one of them).
func (s serveSpec) connections() int {
	if s.mutate {
		return s.clients + 1
	}
	return s.clients
}

// ---------------------------------------------------------------------------
// Query and mutation sequences

// contractMix is caqe-loadgen's default class mix as cumulative weights.
var contractMix = []struct {
	class string
	cum   float64
}{{"softdeadline", 0.5}, {"deadline", 0.65}, {"logdecay", 0.8}, {"ratequota", 0.9}, {"hybrid", 1.0}}

// drawQuery draws one ad-hoc query the way caqe-loadgen does: a join
// condition, one to three preference dimensions, a priority and a contract
// from the class mix.
func drawQuery(rng *rand.Rand, spec serveSpec, name string) cluster.QuerySpec {
	npref := 1 + rng.Intn(min(3, spec.dims))
	pref := rng.Perm(spec.dims)[:npref]
	sort.Ints(pref)
	var cs cluster.ContractSpec
	x := rng.Float64()
	for _, m := range contractMix {
		if x < m.cum {
			cs.Class = m.class
			break
		}
	}
	switch cs.Class {
	case "softdeadline", "deadline":
		cs.Deadline = deadlineBase * (0.5 + rng.Float64())
	case "ratequota", "hybrid":
		cs.Frac = 0.05 + 0.15*rng.Float64()
		cs.Interval = deadlineBase / 10 * (1 + 4*rng.Float64())
	}
	return cluster.QuerySpec{Name: name, JC: rng.Intn(spec.queryJCs), Pref: pref, Priority: rng.Float64(), Contract: cs}
}

// drawQueries draws a client's whole query sequence up front, so that the
// HTTP run and the in-process replays of a traced run see the same one.
func drawQueries(seed int64, stream int, spec serveSpec, n int) []cluster.QuerySpec {
	rng := rand.New(rand.NewSource(seed*7919 + int64(stream)))
	qs := make([]cluster.QuerySpec, n)
	for i := range qs {
		qs[i] = drawQuery(rng, spec, fmt.Sprintf("s%d-%d", stream, i))
	}
	return qs
}

// standingQuery is serve-mutate's continuous query: the first join
// condition, every output dimension.
func standingQuery(spec serveSpec) cluster.QuerySpec {
	pref := make([]int, spec.dims)
	for i := range pref {
		pref[i] = i
	}
	return cluster.QuerySpec{Name: "standing", JC: 0, Pref: pref, Priority: 0.5,
		Contract: cluster.ContractSpec{Class: "logdecay"}, Standing: true}
}

// mutation is one POST /data/{table} of serve-mutate.
type mutation struct {
	table   string // "r" or "t"
	side    int    // 0 = R, 1 = T
	rows    []caqe.TupleData
	deletes []int
	probeID int // row ID the daemon will assign to the probe row (last of rows)
}

// mutationPlan draws the mutation sequence and tracks the table state it
// leads to, so that the expected row IDs, the rows to delete and the final
// tables are known without asking the daemon.
type mutationPlan struct {
	rng     *rand.Rand
	spec    serveSpec
	domain  int64
	anchor  []int64 // join keys shared by the two anchor rows and every probe
	rels    [2]*caqe.Relation
	deleted [2]map[int]bool
	fifo    [2][]int // appended non-probe row IDs, oldest first
	cycle   int
}

const rowsPerMutation = 8 // 7 drawn rows + 1 probe

// carriesDelete reports whether the cycle's mutation also deletes a row: one
// cycle in four, placed so that deletes fall on T and on R in turn (tables
// alternate with the cycle's parity).
func carriesDelete(cycle int) bool { return cycle%8 == 3 || cycle%8 == 6 }

// newMutationPlan picks the anchor — the first pair of initial rows that
// join under every condition would be rare, so the anchor is the key
// vector of R's first row: every probe carries it, so every R probe joins
// every T probe.
func newMutationPlan(seed int64, spec serveSpec, r, t *caqe.Relation) *mutationPlan {
	return &mutationPlan{
		rng:     rand.New(rand.NewSource(seed*104729 + 1)),
		spec:    spec,
		domain:  datagen.JoinDomainForSelectivity(spec.sel),
		anchor:  append([]int64(nil), r.Tuples[0].Keys...),
		rels:    [2]*caqe.Relation{r, t},
		deleted: [2]map[int]bool{{}, {}},
	}
}

// next draws the cycle's mutation: tables alternate; seven rows with
// uniform attributes and keys plus one probe row whose attributes undercut
// every row before it (so the probe pair dominates every earlier result of
// the standing query and must be delivered); one cycle in four also deletes
// the table's oldest appended non-probe row.
func (p *mutationPlan) next() mutation {
	side := p.cycle % 2
	m := mutation{table: "rt"[side : side+1], side: side}
	rel := p.rels[side]
	for i := 0; i < rowsPerMutation-1; i++ {
		row := caqe.TupleData{Attrs: make([]float64, p.spec.dims), Keys: make([]int64, p.spec.keys)}
		for d := range row.Attrs {
			row.Attrs[d] = datagen.AttrMin + (datagen.AttrMax-datagen.AttrMin)*p.rng.Float64()
		}
		for k := range row.Keys {
			row.Keys[k] = p.rng.Int63n(p.domain)
		}
		m.rows = append(m.rows, row)
	}
	probe := caqe.TupleData{Attrs: make([]float64, p.spec.dims), Keys: append([]int64(nil), p.anchor...)}
	for d := range probe.Attrs {
		probe.Attrs[d] = 0.5 - 1e-5*float64(p.cycle)
	}
	m.rows = append(m.rows, probe)
	if carriesDelete(p.cycle) && len(p.fifo[side]) > 0 {
		m.deletes = []int{p.fifo[side][0]}
		p.fifo[side] = p.fifo[side][1:]
	}

	// Mirror the daemon's bookkeeping: appended rows take the next IDs.
	base := rel.Len()
	for i, row := range m.rows {
		rel.MustAppend(row.Attrs, row.Keys)
		if i < len(m.rows)-1 {
			p.fifo[side] = append(p.fifo[side], base+i)
		}
	}
	m.probeID = base + len(m.rows) - 1
	for _, id := range m.deletes {
		p.deleted[side][id] = true
	}
	p.cycle++
	return m
}

// snapshot returns the live rows of both tables as relations of their own
// (row IDs kept), for a ground-truth computation over the current state.
func (p *mutationPlan) snapshot() (r, t *caqe.Relation) {
	var out [2]*caqe.Relation
	for side, rel := range p.rels {
		cp := caqe.NewRelation(rel.Schema)
		for _, tp := range rel.Tuples {
			if !p.deleted[side][tp.ID] {
				cp.Tuples = append(cp.Tuples, tp)
			}
		}
		out[side] = cp
	}
	return out[0], out[1]
}

// ---------------------------------------------------------------------------
// The daemon

// buildServe compiles caqe-serve into the build directory.
func buildServe(cfg config) (string, error) {
	dir, err := filepath.Abs(filepath.Join(cfg.buildDir, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "caqe-serve")
	cmd := exec.Command("go", "build", "-o", bin, "caqe/cmd/caqe-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building caqe-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running caqe-serve child.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	pid  string
	logs bytes.Buffer
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns caqe-serve with its documented flags only and waits
// until /healthz answers 200.
func startDaemon(bin string, spec serveSpec, seed int64) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{url: "http://" + addr}
	d.cmd = exec.Command(bin,
		"-addr", addr,
		"-n", strconv.Itoa(spec.n), "-dims", strconv.Itoa(spec.dims), "-keys", strconv.Itoa(spec.keys),
		"-sel", strconv.FormatFloat(spec.sel, 'g', -1, 64), "-dist", "independent",
		"-clock", "wall", "-max-concurrent", strconv.Itoa(spec.maxConcurrent),
		"-seed", strconv.FormatInt(seed, 10))
	d.cmd.Stderr = &d.logs
	// The child must not outlive the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	d.pid = strconv.Itoa(d.cmd.Process.Pid)
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("caqe-serve not healthy after 30 s: %v\n%s", err, d.logs.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM — the daemon drains every open query, closes its
// streams and exits — and waits for the process to end.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill() // already gone: still reap it
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("caqe-serve exited uncleanly: %v\n%s", err, d.logs.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("caqe-serve did not drain within 60 s of SIGTERM")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// ---------------------------------------------------------------------------
// The client

// client is one closed-loop client holding one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	br   *bufio.Reader
	buf  bytes.Buffer

	rejected int // 429/503 answers seen
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
		br:   bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// postJSON sends one JSON body and decodes the JSON answer into out.
func (c *client) postJSON(path string, body, out any, wantStatus int) error {
	c.buf.Reset()
	if err := json.NewEncoder(&c.buf).Encode(body); err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", &c.buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.rejected++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("POST %s: decoding answer: %w", path, err)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// queryTrip is the client's view of one query: the spans between the
// request boundaries, the result pairs and the bytes of the stream.
type queryTrip struct {
	submit, open, firstLine, drain time.Duration // POST→201, →GET headers, →first line, →done record
	ttfr, half, done               time.Duration // from POST sent
	pairs                          []pairKey
	bytes                          int
}

// intField extracts the integer value of "key": from one NDJSON line.
func intField(line []byte, key string) (int, bool) {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(line) && (line[j] == '-' || (line[j] >= '0' && line[j] <= '9')) {
		j++
	}
	v, err := strconv.Atoi(string(line[i:j]))
	return v, err == nil
}

// lineKind classifies one NDJSON line of a result stream.
type lineKind int

const (
	lineResult lineKind = iota
	lineLag
	lineDone       // {"done":true,...}: the stream carried the query to its end
	lineUnexpected // {"done":false,...} (the server cut the stream loose) or unparsable
)

func classify(line []byte) (lineKind, pairKey) {
	switch {
	case bytes.HasPrefix(line, []byte(`{"done":true`)):
		return lineDone, pairKey{}
	case bytes.HasPrefix(line, []byte(`{"lag":`)):
		return lineLag, pairKey{}
	}
	rid, ok1 := intField(line, `"RID":`)
	tid, ok2 := intField(line, `"TID":`)
	if !ok1 || !ok2 {
		return lineUnexpected, pairKey{}
	}
	return lineResult, pairKey{rid, tid}
}

// query runs one cycle: POST /queries, then GET /queries/{id}/results read
// to the done record. stamps is scratch space for per-line arrival times.
func (c *client) query(q cluster.QuerySpec, stamps *[]time.Duration) (queryTrip, error) {
	var trip queryTrip
	var ack struct {
		ID int `json:"id"`
	}
	t0 := time.Now()
	if err := c.postJSON("/queries", q, &ack, http.StatusCreated); err != nil {
		return trip, err
	}
	t1 := time.Now()
	resp, err := c.hc.Get(c.base + "/queries/" + strconv.Itoa(ack.ID) + "/results")
	if err != nil {
		return trip, err
	}
	defer resp.Body.Close()
	t2 := time.Now()
	if resp.StatusCode != http.StatusOK {
		return trip, fmt.Errorf("GET results of query %d: status %d", ack.ID, resp.StatusCode)
	}
	c.br.Reset(resp.Body)
	*stamps = (*stamps)[:0]
	var t3 time.Time
	for {
		line, err := c.br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			return trip, fmt.Errorf("query %d: stream ended without a done record: %v", ack.ID, err)
		}
		trip.bytes += len(line)
		if t3.IsZero() {
			t3 = now
		}
		kind, pair := classify(line)
		switch kind {
		case lineResult:
			trip.pairs = append(trip.pairs, pair)
			*stamps = append(*stamps, now.Sub(t0))
			continue
		case lineLag:
			return trip, fmt.Errorf("query %d: results were coalesced away from a reader that never stalls", ack.ID)
		case lineUnexpected:
			return trip, fmt.Errorf("query %d: unexpected stream record %q", ack.ID, bytes.TrimSpace(line))
		}
		// The done record.
		io.Copy(io.Discard, c.br)
		trip.submit, trip.open, trip.firstLine, trip.drain = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), now.Sub(t3)
		trip.done = now.Sub(t0)
		trip.ttfr, trip.half = t3.Sub(t0), trip.done
		if n := len(*stamps); n > 0 {
			trip.half = (*stamps)[(n+1)/2-1]
		}
		return trip, nil
	}
}

// mutationAck is the daemon's answer to POST /data/{table}.
type mutationAck struct {
	IDs     []int `json:"ids"`
	Applied bool  `json:"applied"`
}

func (c *client) mutate(m mutation) (time.Duration, error) {
	body := struct {
		Rows   []caqe.TupleData `json:"rows"`
		Delete []int            `json:"delete,omitempty"`
	}{m.rows, m.deletes}
	var ack mutationAck
	start := time.Now()
	if err := c.postJSON("/data/"+m.table, body, &ack, http.StatusOK); err != nil {
		return 0, err
	}
	took := time.Since(start)
	if n := len(ack.IDs); n != len(m.rows) || ack.IDs[n-1] != m.probeID {
		return took, fmt.Errorf("mutation of %s: daemon reserved row IDs %v, expected the probe at %d", m.table, ack.IDs, m.probeID)
	}
	return took, nil
}

// ---------------------------------------------------------------------------
// The standing stream of serve-mutate

// probeWatch remembers every pair a standing query delivered and tells a
// waiter when the row it waits for shows up in a result. The HTTP stream
// reader and the in-process session replay both feed one.
type probeWatch struct {
	mu       sync.Mutex
	pairs    []pairKey
	wantSide int // 0: match on RID, 1: match on TID
	wantID   int // -1 when nobody waits
	seen     chan time.Time
	fin      chan struct{} // closed by the feeder when the stream has ended
}

func newProbeWatch() *probeWatch {
	return &probeWatch{wantID: -1, seen: make(chan time.Time, 1), fin: make(chan struct{})}
}

func (w *probeWatch) observe(p pairKey, at time.Time) {
	w.mu.Lock()
	w.pairs = append(w.pairs, p)
	if w.wantID >= 0 && [2]int{p.rid, p.tid}[w.wantSide] == w.wantID {
		w.wantID = -1
		w.seen <- at
	}
	w.mu.Unlock()
}

// expect arms the watch to report the first result that contains the given
// row. It must be called before the mutation is sent.
func (w *probeWatch) expect(side, id int) {
	w.mu.Lock()
	w.wantSide, w.wantID = side, id
	select {
	case <-w.seen: // a sighting that arrived after its waiter gave up
	default:
	}
	w.mu.Unlock()
}

// await blocks until the expected row shows up, the stream ends or the
// timeout passes.
func (w *probeWatch) await() (time.Time, error) {
	select {
	case at := <-w.seen:
		return at, nil
	case <-w.fin:
		return time.Time{}, fmt.Errorf("standing stream ended while a probe was awaited")
	case <-time.After(probeTimeout):
		w.expect(0, -1)
		return time.Time{}, fmt.Errorf("probe not visible on the standing stream within %v", probeTimeout)
	}
}

// standingStream reads the continuous query's NDJSON stream on a
// connection of its own.
type standingStream struct {
	*probeWatch
	resp  *http.Response
	ended lineKind // how the stream ended: lineDone when drained cleanly
	err   error
}

func openStanding(c *client, q cluster.QuerySpec) (*standingStream, error) {
	var ack struct {
		ID int `json:"id"`
	}
	if err := c.postJSON("/queries", q, &ack, http.StatusCreated); err != nil {
		return nil, err
	}
	resp, err := c.hc.Get(c.base + "/queries/" + strconv.Itoa(ack.ID) + "/results")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET standing results: status %d", resp.StatusCode)
	}
	s := &standingStream{probeWatch: newProbeWatch(), resp: resp, ended: lineUnexpected}
	go s.read()
	return s, nil
}

// read feeds the watch until the stream ends; ended and err are set before
// fin closes.
func (s *standingStream) read() {
	defer close(s.fin)
	defer s.resp.Body.Close()
	br := bufio.NewReaderSize(s.resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			s.err = fmt.Errorf("standing stream ended without a done record: %v", err)
			return
		}
		kind, pair := classify(line)
		if kind != lineResult {
			s.ended = kind
			if kind != lineDone {
				s.err = fmt.Errorf("standing stream: unexpected record %q", bytes.TrimSpace(line))
			}
			return
		}
		s.observe(pair, now)
	}
}

// ---------------------------------------------------------------------------
// Drivers

// stretch is the part of a timed phase between two pace samples: an equal
// share of the phase's cycles, over which the host's pace is taken as
// constant.
type stretch struct {
	from, to  int           // trips[from:to] completed in it
	wall, cpu time.Duration // its length, and the daemon's CPU time over it
	pace      paceFactor    // of the samples on either side
}

// tripLog collects the trips of every client of one phase.
type tripLog struct {
	mu        sync.Mutex
	trips     []queryTrip
	specs     []cluster.QuerySpec
	errs      []error
	stretches []stretch
}

// paceStretches is how many stretches a timed phase is cut into: one pace
// sample a second or so.
const paceStretches = 16

// stretchBounds returns the cycles [from, to) of the i-th stretch of n.
func stretchBounds(n, i int) (from, to int) {
	return n * i / paceStretches, n * (i + 1) / paceStretches
}

// runClients runs one closed loop per client over its query sequence and
// returns when all are through.
func runClients(clients []*client, seqs [][]cluster.QuerySpec, log *tripLog) {
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(c *client, seq []cluster.QuerySpec) {
			defer wg.Done()
			var stamps []time.Duration
			for _, q := range seq {
				trip, err := c.query(q, &stamps)
				log.mu.Lock()
				if err != nil {
					log.errs = append(log.errs, err)
				} else {
					log.trips = append(log.trips, trip)
					log.specs = append(log.specs, q)
				}
				log.mu.Unlock()
			}
		}(c, seqs[ci])
	}
	wg.Wait()
}

// comboKey identifies the (join condition, preference) of a query; queries
// with the same combo have the same result set over the same tables.
func comboKey(q cluster.QuerySpec) uint64 {
	return uint64(q.JC)<<32 | preference.NewSubspace(q.Pref...).Mask()
}

// groundTruth computes the exact result set of each distinct combo among
// the given queries over (r, t).
func groundTruth(spec serveSpec, qs []cluster.QuerySpec, r, t *caqe.Relation) (map[uint64]map[pairKey]bool, error) {
	w := &caqe.Workload{}
	w.JoinConds, w.OutDims = serveVocabulary(spec)
	var keys []uint64
	seen := map[uint64]bool{}
	for _, q := range qs {
		k := comboKey(q)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		w.Queries = append(w.Queries, caqe.Query{Name: q.Name, JC: q.JC, Pref: caqe.Dims(q.Pref...), Contract: caqe.LogDecay()})
	}
	sets, _, err := baseline.GroundTruth(w, r, t)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]map[pairKey]bool, len(keys))
	for i, k := range keys {
		set := make(map[pairKey]bool, len(sets[i]))
		for _, jr := range sets[i] {
			set[pairKey{jr.RID, jr.TID}] = true
		}
		out[k] = set
	}
	return out, nil
}

// sameSet reports whether the delivered pairs are exactly the wanted set.
func sameSet(got []pairKey, want map[pairKey]bool) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[pairKey]bool, len(got))
	for _, p := range got {
		if !want[p] || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// serveRun is the state of one serve-workload run.
type serveRun struct {
	cfg  config
	spec serveSpec
	bin  string
	o    *outcome

	pace     *hostPace
	lastPace paceSample // the latest one

	httpDoneP50 float64 // ms, of the traced run's trips; serveLayers subtracts the session's
}

// setUp starts a daemon and warms it with untimed queries.
func (sr *serveRun) setUp() (*daemon, []*client, error) {
	d, err := startDaemon(sr.bin, sr.spec, sr.cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*client, sr.spec.clients)
	seqs := make([][]cluster.QuerySpec, sr.spec.clients)
	for i := range clients {
		clients[i] = newClient(d.url)
		seqs[i] = drawQueries(sr.cfg.seed, 1000+i, sr.spec, sr.spec.warmup/sr.spec.clients)
	}
	var log tripLog
	runClients(clients, seqs, &log)
	if len(log.errs) > 0 {
		d.kill()
		return nil, nil, fmt.Errorf("warm-up: %v", log.errs[0])
	}
	return d, clients, nil
}

func runServe(cfg config) (*outcome, error) {
	sr := &serveRun{cfg: cfg, spec: serveSpecs[cfg.workload].sized(cfg), o: newOutcome()}
	if n := sr.spec.connections(); n > runtime.NumCPU() && !cfg.quick {
		return nil, fmt.Errorf("%s needs %d client connections but the machine has %d CPUs: the load generator would be measuring itself", cfg.workload, n, runtime.NumCPU())
	}
	var err error
	if sr.bin, err = buildServe(cfg); err != nil {
		return nil, err
	}
	sr.pace = newHostPace()

	// Set-up, several times over (once when traced: setup_s comes from the
	// untraced run): spawn, wait for /healthz, warm up. Every daemon but the
	// last is stopped again at once.
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1
	}
	var setups, rawSetups []float64
	var d *daemon
	var clients []*client
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if d, clients, err = sr.setUp(); err != nil {
			return nil, err
		}
		took := time.Since(start).Seconds()
		sr.lastPace = sr.pace.sample()
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*referencePaceMS/sr.lastPace.wall)
		if i < repeats-1 {
			for _, c := range clients {
				c.close()
			}
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		for _, c := range clients {
			c.close()
		}
		if d.cmd.ProcessState == nil {
			d.kill()
		}
	}()

	r, t, err := sr.spec.relations(cfg.seed)
	if err != nil {
		return nil, err
	}
	if sr.spec.mutate {
		err = sr.mutateLoop(d, clients[0], r, t)
	} else {
		err = sr.streamLoop(d, clients, r, t)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		sr.o.set("setup_s", median(setups), len(setups))
		sr.o.set("raw.setup_s", median(rawSetups), len(rawSetups))
	}
	return sr.o, nil
}

// relations generates the pair the daemon serves, from the same flags.
func (s serveSpec) relations(seed int64) (r, t *caqe.Relation, err error) {
	sels := make([]float64, s.keys)
	for i := range sels {
		sels[i] = s.sel
	}
	return caqe.GeneratePair(s.n, s.dims, caqe.Independent, sels, seed)
}

// paced runs one stretch of a timed phase and takes the pace sample that
// ends it (sr.lastPace, from the set-up or the stretch before, began it).
// The clients are idle while the sample runs, and the sample is in none of
// the stretch's times.
func (sr *serveRun) paced(log *tripLog, d *daemon, run func() error) error {
	cpu0, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	st := stretch{from: len(log.trips)}
	start := time.Now()
	if err := run(); err != nil {
		return err
	}
	st.wall = time.Since(start)
	cpu1, err := procCPU(d.pid)
	if err != nil {
		return err
	}
	after := sr.pace.sample()
	st.to, st.cpu, st.pace = len(log.trips), cpu1-cpu0, paceBetween(sr.lastPace, after)
	sr.lastPace = after
	log.stretches = append(log.stretches, st)
	return nil
}

// satisfaction reads the mean contract satisfaction the daemon computed for
// the ad-hoc queries submitted after the first `skip` (the warm-up).
func satisfaction(base string, skip int) (float64, int, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var st caqe.SessionStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0, fmt.Errorf("decoding /stats: %w", err)
	}
	var vals []float64
	for _, q := range st.Queries {
		if q.ID >= skip && !q.Standing {
			vals = append(vals, q.Satisfaction)
		}
	}
	return mean(vals), len(vals), nil
}

// setTripMetrics turns the trips of a timed phase into the latency and
// throughput metrics.
func (sr *serveRun) setTripMetrics(log *tripLog) {
	o := sr.o
	col := func(f func(queryTrip) time.Duration) []float64 {
		vals := make([]float64, len(log.trips))
		for i, tr := range log.trips {
			vals[i] = ms(f(tr))
		}
		return vals
	}
	n := len(log.trips)
	done := col(func(t queryTrip) time.Duration { return t.done })
	ttfr := col(func(t queryTrip) time.Duration { return t.ttfr })
	if !sr.cfg.traced {
		// Gated timings are stated at the reference pace: each trip by the
		// factor of its stretch, rate and CPU time per stretch.
		factors := make([]float64, n)
		var rates, cpus, rawCPUs, cpuFactors []float64
		var wall time.Duration
		for _, st := range log.stretches {
			for i := st.from; i < st.to; i++ {
				factors[i] = st.pace.wall
			}
			wall += st.wall
			if q := float64(st.to - st.from); q > 0 && st.wall > 0 {
				rates = append(rates, q/st.wall.Seconds()/st.pace.wall)
				cpus = append(cpus, ms(st.cpu)/q*st.pace.cpu)
				rawCPUs = append(rawCPUs, ms(st.cpu)/q)
				cpuFactors = append(cpuFactors, st.pace.cpu)
			}
		}
		adjusted := func(vals []float64) []float64 {
			out := make([]float64, len(vals))
			for i, v := range vals {
				out[i] = v * factors[i]
			}
			return out
		}
		o.set("done_p50_ms", median(adjusted(done)), n)
		o.set("ttfr_p50_ms", median(adjusted(ttfr)), n)
		o.set("results_half_p50_ms", median(adjusted(col(func(t queryTrip) time.Duration { return t.half }))), n)
		o.set("queries_per_s", median(rates), len(rates))
		o.set("cpu_ms_per_query", median(cpus), n)
		o.set("raw.done_p50_ms", median(done), n)
		o.set("raw.cpu_ms_per_query", median(rawCPUs), n)
		o.set("pace_factor", median(factors), len(log.stretches))
		o.set("pace_factor_cpu", median(cpuFactors), len(log.stretches))
		o.set("timed_phase_s", wall.Seconds(), 1)
		// Tails are shown, never gated: they need far more samples than a
		// run holds to repeat within a tenth.
		o.set("done_p95_ms", percentile(done, 95), n)
		o.set("done_p99_ms", percentile(done, 99), n)
		return
	}
	o.set("serve.submit_ms_p50", median(col(func(t queryTrip) time.Duration { return t.submit })), n)
	o.set("serve.stream_open_ms_p50", median(col(func(t queryTrip) time.Duration { return t.open })), n)
	o.set("serve.first_line_ms_p50", median(col(func(t queryTrip) time.Duration { return t.firstLine })), n)
	o.set("serve.drain_ms_p50", median(col(func(t queryTrip) time.Duration { return t.drain })), n)
	o.set("serve.ttfr_p95_ms", percentile(ttfr, 95), n)
	o.set("serve.done_p95_ms", percentile(done, 95), n)
	o.set("serve.done_p99_ms", percentile(done, 99), n)
	bytes, results := 0, 0
	for _, tr := range log.trips {
		bytes += tr.bytes
		results += len(tr.pairs)
	}
	if results > 0 {
		o.set("serve.bytes_per_result", float64(bytes)/float64(results), results)
	}
	sr.httpDoneP50 = median(done)
}

// streamLoop is serve-stream's timed phase and its output check.
func (sr *serveRun) streamLoop(d *daemon, clients []*client, r, t *caqe.Relation) error {
	o := sr.o
	seqs := make([][]cluster.QuerySpec, len(clients))
	var all []cluster.QuerySpec
	for i := range clients {
		seqs[i] = drawQueries(sr.cfg.seed, i, sr.spec, sr.spec.cycles)
		all = append(all, seqs[i]...)
	}
	var log tripLog
	for i := 0; i < paceStretches; i++ {
		part := make([][]cluster.QuerySpec, len(seqs))
		for ci, seq := range seqs {
			from, to := stretchBounds(len(seq), i)
			part[ci] = seq[from:to]
		}
		if err := sr.paced(&log, d, func() error { runClients(clients, part, &log); return nil }); err != nil {
			return err
		}
	}
	rss, err := procPeakRSSMB(d.pid)
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", rss, 1)
	sat, nsat, err := satisfaction(d.url, sr.spec.warmup)
	if err != nil {
		return err
	}
	rejected := 0
	for _, c := range clients {
		rejected += c.rejected
	}
	if err := d.stop(); err != nil {
		return err
	}

	o.attempted = len(all)
	for _, err := range log.errs {
		o.fail(1, "%v", err)
	}
	truth, err := groundTruth(sr.spec, all, r, t)
	if err != nil {
		return err
	}
	emitted := 0
	for i, trip := range log.trips {
		emitted += len(trip.pairs)
		if !sameSet(trip.pairs, truth[comboKey(log.specs[i])]) {
			o.fail(1, "query %s (jc %d, pref %v): delivered %d results, ground truth has %d or differs",
				log.specs[i].Name, log.specs[i].JC, log.specs[i].Pref, len(trip.pairs), len(truth[comboKey(log.specs[i])]))
		}
	}
	sr.setTripMetrics(&log)
	if sr.cfg.traced {
		o.set("serve.rejected", float64(rejected), len(all))
		return sr.serveLayers(all, nil, r, t)
	}
	o.set("satisfaction", sat, nsat)
	o.notes = append(o.notes, fmt.Sprintf("repeats exactly: %d result lines over %d queries", emitted, len(log.trips)))
	return nil
}

// adhocCheck remembers what one sampled ad-hoc query of serve-mutate
// delivered and the tables it ran over.
type adhocCheck struct {
	spec  cluster.QuerySpec
	pairs []pairKey
	r, t  *caqe.Relation
}

// checkEvery is the share of serve-mutate's ad-hoc queries whose result set
// is compared with the ground truth over the tables as they stood (each
// needs its own snapshot and ground-truth computation).
const checkEvery = 50

// mutateLoop is serve-mutate's timed phase and its output checks.
func (sr *serveRun) mutateLoop(d *daemon, c *client, r, t *caqe.Relation) error {
	o := sr.o
	streamConn := newClient(d.url)
	defer streamConn.close()
	stream, err := openStanding(streamConn, standingQuery(sr.spec))
	if err != nil {
		return err
	}
	plan := newMutationPlan(sr.cfg.seed, sr.spec, r, t)
	queries := drawQueries(sr.cfg.seed, 0, sr.spec, sr.spec.cycles)
	var muts []mutation

	var log tripLog
	var appendVisible, deleteVisible, acks []float64
	var checks []adhocCheck
	var stamps []time.Duration
	cycle := func(i int) error {
		q := queries[i]
		m := plan.next()
		muts = append(muts, m)
		o.attempted += 2
		stream.expect(m.side, m.probeID)
		sent := time.Now()
		ack, err := c.mutate(m)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", i, err) // the plan's mirror of the tables is void
		}
		seenAt, err := stream.await()
		if err != nil {
			o.fail(1, "cycle %d: %v", i, err)
		} else {
			acks = append(acks, ms(ack))
			if len(m.deletes) > 0 {
				deleteVisible = append(deleteVisible, ms(seenAt.Sub(sent)))
			} else {
				appendVisible = append(appendVisible, ms(seenAt.Sub(sent)))
			}
		}
		trip, err := c.query(q, &stamps)
		if err != nil {
			o.fail(1, "cycle %d: %v", i, err)
			return nil
		}
		log.trips = append(log.trips, trip)
		log.specs = append(log.specs, q)
		if i%checkEvery == 0 {
			snapR, snapT := plan.snapshot()
			checks = append(checks, adhocCheck{q, trip.pairs, snapR, snapT})
		}
		return nil
	}
	for s := 0; s < paceStretches; s++ {
		from, to := stretchBounds(len(queries), s)
		err := sr.paced(&log, d, func() error {
			for i := from; i < to; i++ {
				if err := cycle(i); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	rss, err := procPeakRSSMB(d.pid)
	if err != nil {
		return err
	}
	o.set("peak_rss_mb", rss, 1)
	sat, nsat, err := satisfaction(d.url, sr.spec.warmup)
	if err != nil {
		return err
	}

	// SIGTERM: the daemon drains the standing query, which must close its
	// stream with a done record.
	if err := d.stop(); err != nil {
		return err
	}
	select {
	case <-stream.fin:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("standing stream still open 10 s after the daemon exited")
	}
	o.attempted++
	if stream.ended != lineDone {
		o.fail(1, "%v", stream.err)
	}
	seen := make(map[pairKey]bool, len(stream.pairs))
	for _, p := range stream.pairs {
		if seen[p] {
			o.fail(1, "standing stream delivered (%d,%d) twice", p.rid, p.tid)
			break
		}
		seen[p] = true
	}
	fr, ft := plan.snapshot()
	final, err := groundTruth(sr.spec, []cluster.QuerySpec{standingQuery(sr.spec)}, fr, ft)
	if err != nil {
		return err
	}
	for p := range final[comboKey(standingQuery(sr.spec))] {
		if !seen[p] {
			o.fail(1, "standing stream never delivered (%d,%d), a result over the final tables", p.rid, p.tid)
			break
		}
	}
	for _, ck := range checks {
		truth, err := groundTruth(sr.spec, []cluster.QuerySpec{ck.spec}, ck.r, ck.t)
		if err != nil {
			return err
		}
		if !sameSet(ck.pairs, truth[comboKey(ck.spec)]) {
			o.fail(1, "query %s (jc %d, pref %v): delivered %d results, ground truth over the tables of its cycle has %d or differs",
				ck.spec.Name, ck.spec.JC, ck.spec.Pref, len(ck.pairs), len(truth[comboKey(ck.spec)]))
		}
	}

	sr.setTripMetrics(&log)
	if sr.cfg.traced {
		o.set("serve.mutate_ack_ms_p50", median(acks), len(acks))
		o.set("serve.append_visible_ms_p50", median(appendVisible), len(appendVisible))
		o.set("serve.delete_visible_ms_p50", median(deleteVisible), len(deleteVisible))
		o.set("serve.rejected", float64(c.rejected), o.attempted)
		r0, t0, err := sr.spec.relations(sr.cfg.seed)
		if err != nil {
			return err
		}
		return sr.serveLayers(queries, muts, r0, t0)
	}
	o.set("satisfaction", sat, nsat)
	o.set("append_visible_p50_ms", median(appendVisible), len(appendVisible))
	o.set("delete_visible_p50_ms", median(deleteVisible), len(deleteVisible))
	o.notes = append(o.notes, fmt.Sprintf("standing stream delivered %d results; %d ad-hoc result sets checked against ground truth", len(stream.pairs), len(checks)))
	return nil
}
