package main

// query-on: Postquel over a daily price table. A round, on one of the
// client's own symbols, appends a marked extra row for a day of the table,
// runs `retrieve … on <calendar>` for three calendars, each followed by the
// same retrieve without `on`, and deletes the extra row again, so the table
// and the calendars' evaluation window stay the same for the whole run.
// Results are reduced to an order-independent digest while the run goes;
// the checks compare each digest with the one the benchmark's own copy of
// the table gives, after the timed phase.

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"calsys"
)

// The table holds every day of 1993..1994 for three symbols. Symbol s is
// written by client s mod clients only, so each retrieve's rows are known
// from the client's own stream.
const (
	querySymbols = 3
	queryYears   = 2
	// Extra rows are priced above extraPx+1; the seeded walk of the table
	// itself stays far below extraPx.
	extraPx = 500.0
)

var (
	queryDay0 = dayOf(1993, 1, 1)
	queryLast = dayOf(1993+queryYears-1, 12, 31)
)

// onCalendars are the `on` calendars with the dates each names.
var onCalendars = []struct {
	name string
	pred pred
}{
	{"AM_BUS_DAYS", businessDay},
	{"Tuesdays", weekday(time.Tuesday)},
	{"ExpirationDates", expirationDay},
}

type priceRow struct {
	d  day
	px float64
}

// qop is one statement with what its check needs.
type qop struct {
	stmt   string
	kind   string // "on", "scan", "append", "delete"
	sym    int
	cal    int     // index into onCalendars (on)
	minPx  float64 // where px > minPx; -Inf for none
	extra  priceRow
	result string // delete: the statement's message
	count  int    // rows returned
	digest uint64 // order-independent digest of the rows returned
}

type queryBench struct {
	cfg      *config
	hol      []day
	rows     [][]priceRow // per symbol
	syms     []string
	timedOps atomic.Int64
}

func newQueryBench(cfg *config) *queryBench {
	b := &queryBench{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.seed))
	b.hol = holidaySet(rng, 1993, 1993+queryYears)
	for s := 0; s < querySymbols; s++ {
		b.syms = append(b.syms, fmt.Sprintf("S%d", s))
		px := 100.0
		var rows []priceRow
		for d := queryDay0; d <= queryLast; d++ {
			px = cents(px + rng.Float64()*2 - 1)
			rows = append(rows, priceRow{d, px})
		}
		b.rows = append(b.rows, rows)
	}
	return b
}

// cents rounds a price to cents, as the statements carry it.
func cents(px float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(px, 'f', 2, 64), 64)
	return v
}

type queryState struct {
	sys *calsys.System
}

func (b *queryBench) build() (*queryState, error) {
	sys, err := calsys.Open()
	if err != nil {
		return nil, err
	}
	if err := sys.DefineStoredCalendar("HOLIDAYS", pointCal(sys, b.hol)); err != nil {
		return nil, err
	}
	for _, def := range []struct{ name, src string }{
		{"AM_BUS_DAYS", `{WD = [1,2,3,4,5]/DAYS:during:WEEKS; return (WD - HOLIDAYS);}`},
		{"Tuesdays", "[2]/DAYS:during:WEEKS"},
		{"ThirdFridays", "[3]/(([5]/(DAYS:during:WEEKS)):during:MONTHS)"},
		{"ExpirationDates", `{t = ThirdFridays:intersects:(DAYS:during:MONTHS);
			h = t:intersects:HOLIDAYS;
			return (t - h + ([n]/AM_BUS_DAYS:<:h));}`},
	} {
		if err := sys.DefineCalendar(def.name, def.src, calsys.Day); err != nil {
			return nil, fmt.Errorf("define %s: %w", def.name, err)
		}
	}
	if _, err := sys.ExecOne(`create prices (sym text, day date, px float)`); err != nil {
		return nil, err
	}
	for s, rows := range b.rows {
		for _, r := range rows {
			if _, err := sys.ExecOne(appendStmt(b.syms[s], r)); err != nil {
				return nil, err
			}
		}
	}
	return &queryState{sys: sys}, nil
}

func appendStmt(sym string, r priceRow) string {
	return fmt.Sprintf(`append prices (sym = "%s", day = "%s", px = %s)`, sym, r.d, strconv.FormatFloat(r.px, 'f', 2, 64))
}

// rowKey mixes one (day, px) row into 64 bits; digests are sums of keys.
func rowKey(y, m, d int, px float64) uint64 {
	x := uint64(y*10000+m*100+d)*0x9E3779B97F4A7C15 ^ math.Float64bits(px)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return x
}

// queryClient is one client's statements, generated round by round.
type queryClient struct {
	c    int
	rng  *rand.Rand
	ops  []qop
	lats []time.Duration
	tr   *tracer
}

func (b *queryBench) round(st *queryState, q *queryClient, timed bool) error {
	rng := q.rng
	var owned []int
	for s := q.c; s < len(b.syms); s += b.cfg.clients {
		owned = append(owned, s)
	}
	sym := owned[rng.Intn(len(owned))]
	name := b.syms[sym]
	extra := priceRow{queryDay0 + day(rng.Intn(int(queryLast-queryDay0)+1)), cents(extraPx + 1 + rng.Float64()*98)}
	round := []qop{{kind: "append", sym: sym, stmt: appendStmt(name, extra)}}
	for k, cal := range rng.Perm(len(onCalendars)) {
		minPx := math.Inf(-1)
		where := fmt.Sprintf(`prices.sym = "%s"`, name)
		if k == 1 {
			minPx = math.Round(b.rows[sym][rng.Intn(len(b.rows[sym]))].px)
			where += fmt.Sprintf(" and prices.px > %s", strconv.FormatFloat(minPx, 'f', 1, 64))
		}
		round = append(round,
			qop{kind: "on", sym: sym, cal: cal, minPx: minPx, extra: extra,
				stmt: fmt.Sprintf(`retrieve (prices.day, prices.px) on %s where %s`, onCalendars[cal].name, where)},
			qop{kind: "scan", sym: sym, minPx: minPx, extra: extra,
				stmt: fmt.Sprintf(`retrieve (prices.day, prices.px) where %s`, where)})
	}
	round = append(round, qop{kind: "delete", sym: sym,
		stmt: fmt.Sprintf(`delete prices where prices.sym = "%s" and prices.px > %s`, name, strconv.FormatFloat(extraPx, 'f', 1, 64))})

	for _, o := range round {
		var res calsys.QueryResult
		var err error
		opID := int64(len(q.ops))
		if o.kind == "on" && q.tr != nil {
			// Traced: evaluate the on calendar over the statement's window
			// first, so ExecOne finds it in the cache and its span holds the
			// scan and the per-row membership tests.
			q.tr.layerAlloc("caldb.eval", opID, -1, func() {
				_, err = st.sys.EvalCalendar(onCalendars[o.cal].name, civilOf(queryDay0), civilOf(queryLast))
			})
			if err != nil {
				return err
			}
		}
		i := q.tr.begin("postquel."+o.kind, opID, -1, false)
		t0 := time.Now()
		res, err = st.sys.ExecOne(o.stmt)
		d := time.Since(t0)
		q.tr.end(i)
		if err != nil {
			return fmt.Errorf("%s: %w", o.stmt, err)
		}
		if timed {
			q.lats = append(q.lats, d)
			b.timedOps.Add(1)
		}
		o.result = res.Msg
		o.count = len(res.Rows)
		for _, r := range res.Rows {
			o.digest += rowKey(r[0].D.Year, r[0].D.Month, r[0].D.Day, r[1].F)
		}
		q.ops = append(q.ops, o)
	}
	return nil
}

// check recomputes a statement's outcome from the benchmark's own table.
func (b *queryBench) check(o *qop, hol map[day]bool) error {
	switch o.kind {
	case "append":
		return nil
	case "delete":
		if !strings.HasPrefix(o.result, "deleted 1 ") {
			return fmt.Errorf("result %q, want the one extra row deleted", o.result)
		}
		return nil
	}
	var count int
	var digest uint64
	for _, r := range append(b.rows[o.sym][:len(b.rows[o.sym]):len(b.rows[o.sym])], o.extra) {
		if !(r.px > o.minPx) {
			continue
		}
		if o.kind == "on" && !onCalendars[o.cal].pred(r.d, hol) {
			continue
		}
		t := r.d.time()
		count++
		digest += rowKey(t.Year(), int(t.Month()), t.Day(), r.px)
	}
	if count != o.count || digest != o.digest {
		return fmt.Errorf("%d rows (digest %x), want %d (digest %x)", o.count, o.digest, count, digest)
	}
	return nil
}

func runQuery(cfg *config) (*result, error) {
	b := newQueryBench(cfg)
	res := &result{layers: map[string]float64{}}
	st, setupS, err := timeSetup(b.build, nil)
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	clients := make([]*queryClient, cfg.clients)
	for c := range clients {
		clients[c] = &queryClient{c: c, rng: rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))}
	}
	// Warm-up: one round per client evaluates each on calendar once.
	if err := runClients(len(clients), func(c int) bool { return len(clients[c].ops) > 0 }, func(c int) error {
		return b.round(st, clients[c], false)
	}); err != nil {
		return nil, err
	}
	var trs []*tracer
	if cfg.trace {
		for _, q := range clients {
			q.tr = newTracer()
			trs = append(trs, q.tr)
		}
	}
	start := startPhase(func() int { return int(b.timedOps.Load()) })
	if err := runClients(len(clients), timedDone(start.at, cfg.seconds, func() int { return int(b.timedOps.Load()) }), func(c int) error {
		return b.round(st, clients[c], true)
	}); err != nil {
		return nil, err
	}
	for _, q := range clients {
		res.timed.lats = append(res.timed.lats, q.lats)
	}
	endPhase(&res.timed, start)
	notePhase(&res.timed)

	hol := daySet(b.hol)
	for _, q := range clients {
		for i := range q.ops {
			res.attempted++
			if err := b.check(&q.ops[i], hol); err != nil {
				res.fail("client %d: %s: %v", q.c, q.ops[i].stmt, err)
			}
		}
	}

	if cfg.trace {
		l := res.layers
		goLayers(l, &res.timed)
		fs, err := fsyncMicros(cfg.workDir)
		if err != nil {
			return nil, err
		}
		l["disk.fsync_us"] = fs
		dur, alloc, _ := totals(trs, func(int64) bool { return true })
		n := float64(res.timed.ops())
		l["caldb.eval_us_per_op"] = us(dur["caldb.eval"]) / n
		l["caldb.eval_alloc_kb_per_op"] = float64(alloc["caldb.eval"]) / 1024 / n
		l["postquel.on_us_per_op"] = us(dur["postquel.on"]) / n
		l["postquel.scan_us_per_op"] = us(dur["postquel.scan"]) / n
		l["postquel.append_us_per_op"] = us(dur["postquel.append"]) / n
		l["postquel.delete_us_per_op"] = us(dur["postquel.delete"]) / n
		l["trace.overhead_pct"] = overheadPct(trs, res.timed.wall*time.Duration(len(clients)))
		if err := writeSpans(cfg, trs); err != nil {
			return nil, err
		}
	}
	return res, nil
}
