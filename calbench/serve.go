package main

// serve-expand and serve-interactive: calserved driven through
// serve.Server.Handler() with in-memory request/response recording.
//
// A run has two phases. Phase A sends the operation stream to the handler
// from the client goroutines; it is the timed phase, and it keeps only a
// hash, length and status of each response. Phase B rebuilds the same state
// and replays every operation of phase A through the public entry points
// the handler calls, in the handler's order: the body it builds must hash
// the same as the handler's, and is then checked against the dates computed
// in oracle.go. Each client owns its tenants, so a client's responses do not
// depend on how the clients interleaved. With --trace 1 phase B runs on one
// goroutine and records a span around each entry point.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"calsys"
	"calsys/internal/chronology"
	"calsys/internal/core/callang"
	"calsys/internal/core/matcache"
	"calsys/internal/core/plan"
	"calsys/internal/serve"
)

const adminToken = "calbench-admin"

// The tenant clocks read 1993-01-01.
var (
	serveToday = calsys.MustDate(1993, 1, 1)
	todayDay   = dayOf(1993, 1, 1)
)

// tenantsPerClient is how many tenants each client owns.
const tenantsPerClient = 4

// expandExprs are calload's expand-preset expressions with the dates each
// names. "[n]/DAYS:<:MONTHS" picks, per month, the last day d with
// d.hi <= month.lo — the paper's "<" — which is the month's first day.
var expandExprs = []struct {
	src  string
	pred pred
}{
	{"DAYS:during:WEEKS", anyDay},
	{"DAYS:during:MONTHS", anyDay},
	{"[n]/DAYS:during:MONTHS", monthDays(-1)},
	{"WEEKS:overlaps:MONTHS", anyDay},
	{"[n]/DAYS:<:MONTHS", monthDays(1)},
	{"(DAYS:during:WEEKS) - holidays", not(isHoliday)},
	{"([1]/DAYS:during:WEEKS):intersects:(DAYS:during:MONTHS)", weekday(time.Monday)},
}

// serve-expand window starts are uniform over [expandLo, expandLo+expandSpan)
// and each window is four years long.
var expandLo = dayOf(1990, 1, 1)

const expandSpan = 100 * 365

// recurrences are the kazoo-style schedules of serve-interactive.
var recurrences = []struct {
	rec  serve.Recurrence
	pred pred
}{
	{serve.Recurrence{Cycle: "monthly", Ordinal: "third", WDays: []string{"friday"}}, nthWeekday(3, time.Friday)},
	{serve.Recurrence{Cycle: "yearly", Month: 7, Days: []int{4}}, inMonth(time.July, monthDays(4))},
	{serve.Recurrence{Cycle: "weekly", WDays: []string{"monday", "wednesday", "friday"}}, weekday(time.Monday, time.Wednesday, time.Friday)},
	{serve.Recurrence{Cycle: "monthly", Days: []int{1, 15, -1}}, monthDays(1, 15, -1)},
	{serve.Recurrence{Cycle: "monthly", Ordinal: "last", WDays: []string{"thursday"}}, nthWeekday(-1, time.Thursday)},
	{serve.Recurrence{Cycle: "yearly", Month: 11, Ordinal: "fourth", WDays: []string{"thursday"}}, inMonth(time.November, nthWeekday(4, time.Thursday))},
	{serve.Recurrence{Cycle: "monthly", Ordinal: "first", WDays: []string{"monday", "friday"}}, or(nthWeekday(1, time.Monday), nthWeekday(1, time.Friday))},
}

// setupRules are the rules every serve-interactive tenant starts with, as
// indexes into recurrences.
var setupRules = []struct {
	name string
	rec  int
}{{"board", 0}, {"payday", 3}, {"standup", 2}, {"thanks", 5}}

const workdaysSrc = "([1,2,3,4,5]/DAYS:during:WEEKS) - holidays"

var scratchDerivations = []string{
	"[1,2,3,4,5]/DAYS:during:WEEKS",
	"[n]/DAYS:during:MONTHS",
	"holidays + ([6,7]/DAYS:during:WEEKS)",
}

type opKind int

const (
	opExpand opKind = iota
	opNext
	opGetCal
	opGetRule
	opPutHol
	opDefine
	opDrop
	opPutRule
	opDropRule
)

// sop is one request of a serve stream, with what its checks need.
type sop struct {
	kind     opKind
	tenant   int
	src      string // expression (expand, next), or "" with rec or rule set
	rec      int    // index into recurrences, or -1
	rule     string // rule name (next, get rule, put rule)
	name     string // calendar name (get, define, drop, holidays write)
	deriv    string
	from, to day
	after    day
	hasAfter bool
	days     []day // holidays written

	method, path string
	body         []byte
	status       int
}

// tenantModel is the benchmark's own view of one tenant's catalog.
type tenantModel struct {
	name, token string
	hol         map[day]bool
	rules       map[string]pred
}

func (m *tenantModel) clone() *tenantModel {
	c := &tenantModel{name: m.name, token: m.token, hol: map[day]bool{}, rules: map[string]pred{}}
	for d := range m.hol {
		c.hol[d] = true
	}
	for n, p := range m.rules {
		c.rules[n] = p
	}
	return c
}

type serveBench struct {
	cfg         *config
	interactive bool
	initial     []*tenantModel // tenant state right after setup
	timedOps    atomic.Int64
}

// holidaySet draws a tenant's holidays for the years [y0, y1]: New Year,
// July 4 and Christmas plus seven seeded days a year.
func holidaySet(rng *rand.Rand, y0, y1 int) []day {
	var out []day
	seen := map[day]bool{}
	add := func(d day) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for y := y0; y <= y1; y++ {
		add(dayOf(y, 1, 1))
		add(dayOf(y, 7, 4))
		add(dayOf(y, 12, 25))
		jan1 := dayOf(y, 1, 1)
		for i := 0; i < 7; i++ {
			add(jan1 + day(rng.Intn(365)))
		}
	}
	sortDays(out)
	return out
}

func sortDays(ds []day) { sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] }) }

func daySet(ds []day) map[day]bool {
	m := make(map[day]bool, len(ds))
	for _, d := range ds {
		m[d] = true
	}
	return m
}

func dayStrings(ds []day) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

func newServeBench(cfg *config, interactive bool) *serveBench {
	b := &serveBench{cfg: cfg, interactive: interactive}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < cfg.clients*tenantsPerClient; i++ {
		m := &tenantModel{name: fmt.Sprintf("t%d", i), rules: map[string]pred{}}
		if interactive {
			m.hol = daySet(holidaySet(rng, 1993, 1996))
			for _, r := range setupRules {
				m.rules[r.name] = recurrences[r.rec].pred
			}
		} else {
			m.hol = daySet(holidaySet(rng, 1990, 2095))
		}
		b.initial = append(b.initial, m)
	}
	return b
}

// serveState is one built server with the benchmark's model of its tenants.
type serveState struct {
	srv     *serve.Server
	h       http.Handler
	tenants []*tenantModel
}

// call sends one request to the handler and returns status, body and the
// handler round trip.
func call(h http.Handler, method, path, token string, body []byte) (int, []byte, time.Duration) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://calserved"+path, rd)
	if err != nil {
		panic(err) // paths are built by the benchmark and always parse
	}
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(t0)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own request types are marshalled
	}
	return b
}

// build provisions the tenants through the handler, as clients would.
func (b *serveBench) build() (*serveState, error) {
	srv, err := serve.New(serve.Config{AdminToken: adminToken, Today: serveToday})
	if err != nil {
		return nil, err
	}
	st := &serveState{srv: srv, h: srv.Handler()}
	expect := func(what string, want, got int, body []byte) error {
		if got != want {
			return fmt.Errorf("setup %s: status %d, want %d: %s", what, got, want, body)
		}
		return nil
	}
	for _, init := range b.initial {
		m := init.clone()
		code, body, _ := call(st.h, "POST", "/v1/tenants", adminToken, mustJSON(map[string]string{"name": m.name}))
		if err := expect("tenant "+m.name, http.StatusCreated, code, body); err != nil {
			return nil, err
		}
		var created struct{ Token string }
		if err := json.Unmarshal(body, &created); err != nil {
			return nil, fmt.Errorf("setup tenant %s: %v", m.name, err)
		}
		m.token = created.Token
		base := "/v1/tenants/" + m.name
		hol := make([]day, 0, len(m.hol))
		for d := range m.hol {
			hol = append(hol, d)
		}
		sortDays(hol)
		code, body, _ = call(st.h, "PUT", base+"/calendars/holidays", m.token, mustJSON(map[string]any{"days": dayStrings(hol)}))
		if err := expect("holidays", http.StatusCreated, code, body); err != nil {
			return nil, err
		}
		if b.interactive {
			code, body, _ = call(st.h, "PUT", base+"/calendars/workdays", m.token, mustJSON(map[string]any{"derivation": workdaysSrc}))
			if err := expect("workdays", http.StatusCreated, code, body); err != nil {
				return nil, err
			}
			for _, r := range setupRules {
				code, body, _ = call(st.h, "PUT", base+"/rules/"+r.name, m.token, mustJSON(map[string]any{"recurrence": recurrences[r.rec].rec}))
				if err := expect("rule "+r.name, http.StatusCreated, code, body); err != nil {
					return nil, err
				}
			}
		}
		st.tenants = append(st.tenants, m)
	}
	return st, nil
}

// encode fills in the request of an operation.
func (o *sop) encode(tenantName string) {
	base := "/v1/tenants/" + tenantName
	var recp *serve.Recurrence
	if o.rec >= 0 {
		recp = &recurrences[o.rec].rec
	}
	switch o.kind {
	case opExpand:
		req := map[string]any{"from": o.from.String(), "to": o.to.String()}
		if recp != nil {
			req["recurrence"] = recp
		} else {
			req["expr"] = o.src
		}
		o.method, o.path, o.body, o.status = "POST", base+"/expand", mustJSON(req), http.StatusOK
	case opNext:
		req := map[string]any{}
		switch {
		case o.rule != "":
			req["rule"] = o.rule
		case recp != nil:
			req["recurrence"] = recp
		default:
			req["expr"] = o.src
		}
		if o.hasAfter {
			req["after"] = o.after.String()
		}
		o.method, o.path, o.body, o.status = "POST", base+"/next", mustJSON(req), http.StatusOK
	case opGetCal:
		o.method, o.path, o.status = "GET", base+"/calendars/"+o.name, http.StatusOK
	case opGetRule:
		o.method, o.path, o.status = "GET", base+"/rules/"+o.rule, http.StatusOK
	case opPutHol:
		o.method, o.path, o.body, o.status = "PUT", base+"/calendars/"+o.name, mustJSON(map[string]any{"days": dayStrings(o.days)}), http.StatusOK
	case opDefine:
		o.method, o.path, o.body, o.status = "PUT", base+"/calendars/"+o.name, mustJSON(map[string]any{"derivation": o.deriv}), http.StatusCreated
	case opDrop:
		o.method, o.path, o.status = "DELETE", base+"/calendars/"+o.name, http.StatusNoContent
	case opPutRule:
		o.method, o.path, o.body, o.status = "PUT", base+"/rules/"+o.rule, mustJSON(map[string]any{"recurrence": recp}), http.StatusCreated
	case opDropRule:
		o.method, o.path, o.status = "DELETE", base+"/rules/"+o.rule, http.StatusNoContent
	}
}

// stream is one client's operations: generated round by round from the
// client's own seeded source, so phase B can replay them.
type stream struct {
	client int
	rng    *rand.Rand
	rounds int
	ops    []sop

	// phase A outcomes, one per op
	status []int
	hash   []uint64
	size   []int
	warm   int // ops sent before the timed phase
	lats   []time.Duration
	failed []bool
}

var hashSeed = maphash.MakeSeed()

// nextRound appends one round of operations to the stream.
func (b *serveBench) nextRound(s *stream) []sop {
	rng := s.rng
	tenant := s.client*tenantsPerClient + rng.Intn(tenantsPerClient)
	var ops []sop
	add := func(o sop) {
		o.tenant = tenant
		ops = append(ops, o)
	}
	if !b.interactive {
		for _, k := range rng.Perm(len(expandExprs)) {
			tenant = s.client*tenantsPerClient + rng.Intn(tenantsPerClient)
			from := expandLo + day(rng.Intn(expandSpan))
			add(sop{kind: opExpand, src: expandExprs[k].src, rec: -1, from: from, to: from.addYears(4) - 1})
		}
	} else {
		randAfter := func() day { return todayDay + day(rng.Intn(4*365)) }
		year := func() (day, day) {
			y := 1993 + rng.Intn(3)
			return dayOf(y, 1, 1), dayOf(y, 12, 31)
		}
		setupRule := func() string { return setupRules[rng.Intn(len(setupRules))].name }
		randRec := func() int { return rng.Intn(len(recurrences)) }
		y0, y1 := year()
		add(sop{kind: opNext, rule: setupRule(), rec: -1, after: randAfter(), hasAfter: true})
		add(sop{kind: opNext, rec: randRec(), after: randAfter(), hasAfter: true})
		add(sop{kind: opNext, rec: randRec()})
		add(sop{kind: opNext, src: "workdays", rec: -1, after: randAfter(), hasAfter: true})
		add(sop{kind: opExpand, rec: randRec(), from: y0, to: y1})
		add(sop{kind: opExpand, src: "holidays", rec: -1, from: y0, to: y1})
		add(sop{kind: opExpand, src: "workdays", rec: -1, from: y0, to: y1})
		add(sop{kind: opGetCal, name: "holidays", rec: -1})
		add(sop{kind: opGetRule, rule: setupRule(), rec: -1})
		add(sop{kind: opNext, rule: setupRule(), rec: -1, after: randAfter(), hasAfter: true})
		y0, y1 = year()
		add(sop{kind: opExpand, rec: randRec(), from: y0, to: y1})
		add(sop{kind: opPutHol, name: "holidays", rec: -1, days: holidaySet(rng, 1993, 1996)})
		add(sop{kind: opExpand, src: "holidays", rec: -1, from: dayOf(1993, 1, 1), to: dayOf(1996, 12, 31)})
		add(sop{kind: opDefine, name: "scratch", rec: -1, deriv: scratchDerivations[rng.Intn(len(scratchDerivations))]})
		add(sop{kind: opDrop, name: "scratch", rec: -1})
		add(sop{kind: opPutRule, rule: "scratch", rec: randRec()})
		add(sop{kind: opDropRule, rule: "scratch", rec: -1})
	}
	s.rounds++
	for i := range ops {
		ops[i].encode(b.initial[ops[i].tenant].name)
	}
	return ops
}

// runA sends rounds until done() reports true between rounds; timed
// decides whether latencies are kept.
func (b *serveBench) runA(st *serveState, streams []*stream, done func(c int) bool, timed bool) error {
	return runClients(len(streams), done, func(c int) error {
		s := streams[c]
		for _, o := range b.nextRound(s) {
			tok := st.tenants[o.tenant].token
			code, body, d := call(st.h, o.method, o.path, tok, o.body)
			s.ops = append(s.ops, o)
			s.status = append(s.status, code)
			s.hash = append(s.hash, maphash.Bytes(hashSeed, body))
			s.size = append(s.size, len(body))
			if timed {
				s.lats = append(s.lats, d)
				b.timedOps.Add(1)
			}
		}
		return nil
	})
}

func runServe(cfg *config, interactive bool) (*result, error) {
	b := newServeBench(cfg, interactive)
	res := &result{layers: map[string]float64{}}
	st, setupS, err := timeSetup(b.build, nil)
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	streams := make([]*stream, cfg.clients)
	for c := range streams {
		streams[c] = &stream{client: c, rng: rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))}
	}

	// Warm-up: serve-expand runs until the cache has filled and begun to
	// evict (at most 30 s); serve-interactive for one second.
	warmEnd := time.Now().Add(time.Second)
	done := func(int) bool { return time.Now().After(warmEnd) }
	if !interactive {
		ev0 := matcache.Shared().Stats().Evictions
		warmEnd = time.Now().Add(30 * time.Second)
		var full atomic.Bool
		done = func(int) bool {
			if matcache.Shared().Stats().Evictions > ev0 {
				full.Store(true)
			}
			return full.Load() || time.Now().After(warmEnd)
		}
	}
	tW := time.Now()
	if err := b.runA(st, streams, done, false); err != nil {
		return nil, err
	}
	warmOps := 0
	for _, s := range streams {
		s.warm = len(s.ops)
		warmOps += s.warm
	}
	note("warm-up: %d ops in %v", warmOps, time.Since(tW).Round(time.Millisecond))
	start := startPhase(func() int { return int(b.timedOps.Load()) })
	if err := b.runA(st, streams, timedDone(start.at, cfg.seconds, func() int { return int(b.timedOps.Load()) }), true); err != nil {
		return nil, err
	}
	for _, s := range streams {
		res.timed.lats = append(res.timed.lats, s.lats)
	}
	endPhase(&res.timed, start)
	notePhase(&res.timed)

	ev := res.timed.mat.Evictions
	if !interactive && ev == 0 {
		res.violate("serve-expand: no matcache evictions in the timed phase (working set must exceed the %d-byte budget)", res.timed.mat.Budget)
	}
	if interactive && ev != 0 {
		res.violate("serve-interactive: %d matcache evictions in the timed phase, want none", ev)
	}

	// Phase B: replay and check.
	st = nil
	matcache.Shared().Reset()
	stB, err := b.build()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rp, err := newReplayer(stB, tr)
	if err != nil {
		return nil, err
	}
	// Streams replay concurrently, one goroutine each, except when traced:
	// one goroutine then keeps the allocation counts of spans exact.
	tB := time.Now()
	fails := make([][]string, len(streams))
	if cfg.trace {
		for c, s := range streams {
			fails[c] = replayStream(rp, s, stB.tenants)
		}
	} else {
		var wg sync.WaitGroup
		for c, s := range streams {
			wg.Add(1)
			go func(c int, s *stream) {
				defer wg.Done()
				fails[c] = replayStream(rp, s, stB.tenants)
			}(c, s)
		}
		wg.Wait()
	}
	for c, s := range streams {
		res.attempted += len(s.ops)
		for _, f := range fails[c] {
			res.fail("%s", f)
		}
	}
	busyB := time.Since(tB)
	note("replay and checks: %d ops in %v", res.attempted, busyB.Round(time.Millisecond))

	if cfg.trace {
		l := res.layers
		goLayers(l, &res.timed)
		fs, err := fsyncMicros(cfg.workDir)
		if err != nil {
			return nil, err
		}
		l["disk.fsync_us"] = fs
		timedOp := func(op int64) bool {
			s := streams[op>>32]
			return int(op&0xffffffff) >= s.warm
		}
		dur, alloc, n := totals([]*tracer{tr}, timedOp)
		per := func(name string) float64 { return us(dur[name]) / float64(n) }
		l["vet.us_per_op"] = per("vet")
		l["vet.alloc_kb_per_op"] = float64(alloc["vet"]) / 1024 / float64(n)
		l["recurrence.us_per_op"] = per("recurrence")
		l["caldb.eval_us_per_op"] = per("caldb.eval")
		l["caldb.eval_alloc_kb_per_op"] = float64(alloc["caldb.eval"]) / 1024 / float64(n)
		l["plan.next_us_per_op"] = per("plan.next")
		l["serve.encode_us_per_op"] = per("serve.encode")
		l["catalog.write_us_per_op"] = per("catalog.write")
		layered := 0.0
		for _, name := range []string{"vet", "recurrence", "caldb.eval", "plan.next", "serve.encode", "catalog.write"} {
			layered += per(name)
		}
		l["serve.residual_us_per_op"] = us(res.timed.meanLat()) - layered
		var bytesA, nA int
		for _, s := range streams {
			for i := s.warm; i < len(s.ops); i++ {
				bytesA += s.size[i]
				nA++
			}
		}
		l["serve.resp_bytes_per_op"] = float64(bytesA) / float64(nA)
		l["trace.overhead_pct"] = overheadPct([]*tracer{tr}, busyB)
		if err := writeSpans(cfg, []*tracer{tr}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// replayStream replays one client's operations in order, compares each
// replayed response with the handler's and checks it against the model. It
// returns one message per failed operation.
func replayStream(rp *replayer, s *stream, models []*tenantModel) []string {
	var fails []string
	for i := range s.ops {
		o := &s.ops[i]
		what := fmt.Sprintf("client %d op %d %s %s %s", s.client, i, o.method, o.path, o.body)
		code, body, err := rp.replay(o, int64(s.client)<<32|int64(i))
		switch {
		case s.status[i] != o.status:
			fails = append(fails, fmt.Sprintf("%s: status %d, want %d", what, s.status[i], o.status))
		case err != nil:
			fails = append(fails, fmt.Sprintf("%s: replay: %v", what, err))
		case code != s.status[i] || maphash.Bytes(hashSeed, body) != s.hash[i]:
			fails = append(fails, fmt.Sprintf("%s: replayed response (status %d, %d bytes) differs from the handler's (status %d, %d bytes)",
				what, code, len(body), s.status[i], s.size[i]))
		default:
			if err := checkServe(o, body, models[o.tenant]); err != nil {
				fails = append(fails, fmt.Sprintf("%s: %v", what, err))
			}
		}
		applyServe(o, models[o.tenant])
	}
	return fails
}

// --- replay --------------------------------------------------------------

// The response shapes calserved writes, field for field, so the replayed
// body can equal the handler's byte for byte.
type calendarJSON struct {
	Name        string   `json:"name"`
	Derivation  string   `json:"derivation,omitempty"`
	EvalPlan    string   `json:"eval_plan,omitempty"`
	Granularity string   `json:"granularity"`
	Lifespan    string   `json:"lifespan"`
	Stored      bool     `json:"stored"`
	Warnings    []string `json:"warnings,omitempty"`
	Replaced    bool     `json:"replaced,omitempty"`
}

type ruleJSON struct {
	Name        string             `json:"name"`
	Expr        string             `json:"expr"`
	Fired       int64              `json:"fired"`
	Next        string             `json:"next,omitempty"`
	Diagnostics []serve.Diagnostic `json:"diagnostics,omitempty"`
}

type intervalJSON struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

type expandResp struct {
	Expr        string         `json:"expr"`
	Granularity string         `json:"granularity"`
	Count       int            `json:"count"`
	Intervals   []intervalJSON `json:"intervals"`
}

type nextResp struct {
	Expr         string `json:"expr"`
	After        string `json:"after"`
	Next         string `json:"next,omitempty"`
	EpochSeconds int64  `json:"epoch_seconds,omitempty"`
	Dormant      bool   `json:"dormant,omitempty"`
	SharedPlan   bool   `json:"shared_plan"`
}

// writeJSONBody encodes v as calserved does: two-space indent, newline.
func writeJSONBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // the response shapes above always encode
	}
	return buf.Bytes()
}

func entryJSON(e *calsys.CalendarEntry) calendarJSON {
	return calendarJSON{
		Name:        e.Name,
		Derivation:  e.Derivation,
		EvalPlan:    e.EvalPlan,
		Granularity: e.Gran.String(),
		Lifespan:    e.Lifespan.String(),
		Stored:      e.Values != nil,
		Warnings:    e.Warnings,
	}
}

// replayer answers operations by calling the entry points the handler
// calls, with a span around each.
type replayer struct {
	st      *serveState
	share   *serve.PlanShare
	tr      *tracer
	ruleSrc []map[string]string // per tenant: rule name -> expression
}

func newReplayer(st *serveState, tr *tracer) (*replayer, error) {
	share, err := serve.NewPlanShare()
	if err != nil {
		return nil, err
	}
	rp := &replayer{st: st, share: share, tr: tr}
	for _, m := range st.tenants {
		srcs := map[string]string{}
		t, ok := st.srv.Registry().Get(m.name)
		if !ok {
			return nil, fmt.Errorf("replay: no tenant %s", m.name)
		}
		for _, r := range setupRules {
			src, err := recurrences[r.rec].rec.Compile(t.System().Chron())
			if err != nil {
				return nil, err
			}
			srcs[r.name] = src
		}
		rp.ruleSrc = append(rp.ruleSrc, srcs)
	}
	return rp, nil
}

func (rp *replayer) nextInstant(t *serve.Tenant, src string, after int64) (int64, bool, error) {
	e, err := callang.ParseExpr(src)
	if err != nil {
		return 0, false, err
	}
	if sched, ok, err := rp.share.SchedulerFor(e); err == nil && ok {
		return sched.NextAfter(after)
	}
	sys := t.System()
	env := t.Manager().Env()
	env.Now = sys.Clock().Now
	prepped, gran, err := plan.Prepare(env, e, nil)
	if err != nil {
		return 0, false, err
	}
	return plan.NextInstant(env, prepped, gran, after, 0)
}

func civilOf(d day) chronology.Civil {
	t := d.time()
	return chronology.Civil{Year: t.Year(), Month: int(t.Month()), Day: t.Day()}
}

// replay answers one operation; the returned status and body must equal
// the handler's.
func (rp *replayer) replay(o *sop, opID int64) (code int, body []byte, err error) {
	tr := rp.tr
	root := tr.begin("op", opID, -1, false)
	defer tr.end(root)
	m := rp.st.tenants[o.tenant]
	t, ok := rp.st.srv.Registry().Get(m.name)
	if !ok {
		return 0, nil, fmt.Errorf("no tenant %s", m.name)
	}
	sys, mgr := t.System(), t.Manager()
	vet := func(name, src string) error {
		if tr == nil {
			// Untraced, the replay only checks outputs. Vet decides only
			// whether a request fails, and the handler's status already
			// shows that, so the replay skips it to save time.
			return nil
		}
		var diags calsys.VetDiags
		tr.layerAlloc("vet", opID, root, func() { diags = mgr.Vet(name, src) })
		if diags.HasErrors() {
			return fmt.Errorf("vet: %v", diags)
		}
		return nil
	}
	compile := func() (src string) {
		tr.layer("recurrence", opID, root, func() { src, err = recurrences[o.rec].rec.Compile(sys.Chron()) })
		return src
	}
	encode := func(v any) {
		tr.layer("serve.encode", opID, root, func() { body = writeJSONBody(v) })
	}

	switch o.kind {
	case opExpand:
		src := o.src
		if o.rec >= 0 {
			if src = compile(); err != nil {
				return 0, nil, err
			}
		}
		from, to := civilOf(o.from), civilOf(o.to)
		if err := vet("", src); err != nil {
			return 0, nil, err
		}
		var cal *calsys.Calendar
		tr.layerAlloc("caldb.eval", opID, root, func() { cal, err = sys.EvalCalendar(src, from, to) })
		if err != nil {
			return 0, nil, err
		}
		tr.layer("serve.encode", opID, root, func() {
			flat := cal.Flatten()
			ch, g := sys.Chron(), cal.Granularity()
			ivs := flat.Intervals()
			resp := expandResp{Expr: src, Granularity: g.String(), Intervals: make([]intervalJSON, 0, len(ivs))}
			for _, iv := range ivs {
				start := ch.CivilOf(ch.UnitStart(g, iv.Lo))
				end := ch.CivilOf(ch.UnitEndExcl(g, iv.Hi) - 1)
				if end.Before(from) || to.Before(start) {
					continue
				}
				if start.Before(from) {
					start = from
				}
				if to.Before(end) {
					end = to
				}
				resp.Intervals = append(resp.Intervals, intervalJSON{Start: start.String(), End: end.String()})
			}
			resp.Count = len(resp.Intervals)
			body = writeJSONBody(resp)
		})
		return http.StatusOK, body, nil

	case opNext:
		var src string
		switch {
		case o.rule != "":
			src = rp.ruleSrc[o.tenant][o.rule]
		case o.rec >= 0:
			if src = compile(); err != nil {
				return 0, nil, err
			}
		default:
			src = o.src
		}
		after := sys.Now()
		afterStr := sys.Chron().CivilOf(after).String()
		if o.hasAfter {
			c := civilOf(o.after)
			after, afterStr = sys.SecondsOf(c), c.String()
		}
		if err := vet("", src); err != nil {
			return 0, nil, err
		}
		var at int64
		var found bool
		tr.layer("plan.next", opID, root, func() { at, found, err = rp.nextInstant(t, src, after) })
		if err != nil {
			return 0, nil, err
		}
		tr.layer("serve.encode", opID, root, func() {
			e, perr := callang.ParseExpr(src)
			resp := nextResp{Expr: src, After: afterStr, SharedPlan: perr == nil && serve.Shareable(e)}
			if !found {
				resp.Dormant = true
			} else {
				resp.Next = sys.Chron().CivilOf(at).String()
				resp.EpochSeconds = at
			}
			body = writeJSONBody(resp)
		})
		return http.StatusOK, body, nil

	case opGetCal:
		e, ok := mgr.Lookup(o.name)
		if !ok {
			return 0, nil, fmt.Errorf("no calendar %s", o.name)
		}
		encode(entryJSON(e))
		return http.StatusOK, body, nil

	case opGetRule:
		src := rp.ruleSrc[o.tenant][o.rule]
		resp := ruleJSON{Name: o.rule, Expr: src}
		rp.ruleNext(t, &resp, opID, root)
		encode(resp)
		return http.StatusOK, body, nil

	case opPutHol:
		ticks := make([]calsys.Tick, len(o.days))
		for i, d := range o.days {
			ticks[i] = sys.DayTickOf(civilOf(d))
		}
		cal, err := calsys.PointCalendar(calsys.Day, ticks...)
		if err != nil {
			return 0, nil, err
		}
		if prev, ok := mgr.Lookup(o.name); !ok || prev.Values == nil {
			return 0, nil, fmt.Errorf("%s is not a stored calendar", o.name)
		}
		tr.layer("catalog.write", opID, root, func() { err = sys.ReplaceStoredCalendar(o.name, cal) })
		if err != nil {
			return 0, nil, err
		}
		e, _ := mgr.Lookup(o.name)
		resp := entryJSON(e)
		resp.Replaced = true
		encode(resp)
		return http.StatusOK, body, nil

	case opDefine:
		if _, exists := mgr.Lookup(o.name); exists {
			return 0, nil, fmt.Errorf("calendar %s already defined", o.name)
		}
		if err := vet(o.name, o.deriv); err != nil {
			return 0, nil, err
		}
		tr.layer("catalog.write", opID, root, func() { err = sys.DefineCalendar(o.name, o.deriv, calsys.GranAuto) })
		if err != nil {
			return 0, nil, err
		}
		e, _ := mgr.Lookup(o.name)
		encode(entryJSON(e))
		return http.StatusCreated, body, nil

	case opDrop:
		tr.layer("catalog.write", opID, root, func() { err = sys.DropCalendar(o.name) })
		if err != nil {
			return 0, nil, err
		}
		return http.StatusNoContent, nil, nil

	case opPutRule:
		src := compile()
		if err != nil {
			return 0, nil, err
		}
		var diags calsys.VetDiags
		tr.layerAlloc("vet", opID, root, func() { diags = mgr.Vet("", src) })
		if diags.HasErrors() {
			return 0, nil, fmt.Errorf("vet: %v", diags)
		}
		tr.layer("catalog.write", opID, root, func() {
			err = sys.OnCalendar(t.Name+"/"+o.rule, src, func(*calsys.Txn, int64) error { return nil })
		})
		if err != nil {
			return 0, nil, err
		}
		rp.ruleSrc[o.tenant][o.rule] = src
		resp := ruleJSON{Name: o.rule, Expr: src}
		rp.ruleNext(t, &resp, opID, root)
		for _, d := range diags.Warnings() {
			wd := serve.Diagnostic{Code: d.Code, Severity: d.Severity.String(), Message: d.Msg}
			if d.Pos.Line != 0 || d.Pos.Col != 0 {
				wd.Position = d.Pos.String()
			}
			resp.Diagnostics = append(resp.Diagnostics, wd)
		}
		encode(resp)
		return http.StatusCreated, body, nil

	case opDropRule:
		if _, ok := rp.ruleSrc[o.tenant][o.rule]; !ok {
			return 0, nil, fmt.Errorf("no rule %s", o.rule)
		}
		tr.layer("catalog.write", opID, root, func() { err = sys.DropRule(t.Name + "/" + o.rule) })
		if err != nil {
			return 0, nil, err
		}
		delete(rp.ruleSrc[o.tenant], o.rule)
		return http.StatusNoContent, nil, nil
	}
	return 0, nil, fmt.Errorf("unknown op kind %d", o.kind)
}

// ruleNext fills a rule's next firing after the tenant clock.
func (rp *replayer) ruleNext(t *serve.Tenant, r *ruleJSON, opID int64, root int) {
	sys := t.System()
	var at int64
	var ok bool
	var err error
	rp.tr.layer("plan.next", opID, root, func() { at, ok, err = rp.nextInstant(t, r.Expr, sys.Now()) })
	if err == nil && ok {
		r.Next = sys.Chron().CivilOf(at).String()
	}
}

// --- checks ----------------------------------------------------------------

// opPred is the calendar an operation names, under the tenant model.
func opPred(o *sop, m *tenantModel) pred {
	switch {
	case o.rule != "":
		return m.rules[o.rule]
	case o.rec >= 0:
		return recurrences[o.rec].pred
	case o.src == "holidays":
		return isHoliday
	case o.src == "workdays":
		return businessDay
	}
	for _, e := range expandExprs {
		if e.src == o.src {
			return e.pred
		}
	}
	return nil
}

// checkServe checks a response body against the model's dates.
func checkServe(o *sop, body []byte, m *tenantModel) error {
	switch o.kind {
	case opExpand:
		var r expandResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Count != len(r.Intervals) {
			return fmt.Errorf("count %d for %d intervals", r.Count, len(r.Intervals))
		}
		seen := make([]bool, int(o.to-o.from)+1)
		var got []day
		for _, iv := range r.Intervals {
			a, err := parseDay(iv.Start)
			if err != nil {
				return err
			}
			z, err := parseDay(iv.End)
			if err != nil {
				return err
			}
			for d := a; d <= z; d++ {
				if d < o.from || d > o.to {
					return fmt.Errorf("%s is outside the window", d)
				}
				if seen[d-o.from] {
					return fmt.Errorf("%s appears twice", d)
				}
				seen[d-o.from] = true
			}
		}
		for i, s := range seen {
			if s {
				got = append(got, o.from+day(i))
			}
		}
		return sameDays(got, expected(opPred(o, m), o.from, o.to, m.hol))
	case opNext:
		var r nextResp
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		after := todayDay
		if o.hasAfter {
			after = o.after
		}
		if r.After != after.String() {
			return fmt.Errorf("after %q, want %s", r.After, after)
		}
		want, ok := nextAfter(opPred(o, m), after, m.hol)
		if !ok {
			return fmt.Errorf("the oracle found no date after %s", after)
		}
		if r.Dormant || r.Next != want.String() {
			return fmt.Errorf("next %q (dormant %v), want %s", r.Next, r.Dormant, want)
		}
	case opGetCal, opPutHol, opDefine:
		var r calendarJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Name != o.name || r.Stored != (o.kind != opDefine) || r.Replaced != (o.kind == opPutHol) {
			return fmt.Errorf("catalog entry %+v", r)
		}
	case opGetRule, opPutRule:
		var r ruleJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		p := m.rules[o.rule]
		if o.kind == opPutRule {
			p = recurrences[o.rec].pred
		}
		want, _ := nextAfter(p, todayDay, m.hol)
		if r.Name != o.rule || r.Next != want.String() {
			return fmt.Errorf("rule %s next %q, want %s", r.Name, r.Next, want)
		}
	case opDrop, opDropRule:
		if len(body) != 0 {
			return fmt.Errorf("unexpected body %q", body)
		}
	}
	return nil
}

// applyServe updates the model after a write.
func applyServe(o *sop, m *tenantModel) {
	switch o.kind {
	case opPutHol:
		m.hol = daySet(o.days)
	case opPutRule:
		m.rules[o.rule] = recurrences[o.rec].pred
	case opDropRule:
		delete(m.rules, o.rule)
	}
}
