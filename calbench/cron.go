package main

// cron-durable: a durable DBCRON over a fleet of temporal rules, its journal
// fsynced on every ack in a fresh directory under the checkout. The virtual
// clock advances in probe-period steps; holidays are replaced at fixed points,
// which makes the next probe recompute every rule's next trigger.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"calsys"
	"calsys/internal/rules/journal"
)

const (
	cronRules = 10000
	cronT     = 6 * 3600 // probe period, seconds
	// A holiday change at day c edits only days >= c+changeMargin. Every
	// fleet calendar fires at least once every 35 days, so no armed trigger
	// lies in the edited range and the rules fire exactly on the final
	// holiday set's dates (see README.md).
	changeMargin = 36
	changeEvery  = 7 // days between holiday changes; the first is on day 1
)

// cronExpr is one of the fleet's distinct calendars with the dates it names.
type cronExpr struct {
	src  string
	pred pred
}

// cronExprs are the fleet's calendars; rules are dealt to them evenly. The
// day-of-month calendars cover days 1..28 so that every day of a month
// carries a similar batch of firings, and a run's latency tail does not
// depend on which days it happens to simulate.
var cronExprs = append([]cronExpr{
	{"[1]/DAYS:during:WEEKS", weekday(time.Monday)},
	{"[2]/DAYS:during:WEEKS", weekday(time.Tuesday)},
	{"[3]/DAYS:during:WEEKS", weekday(time.Wednesday)},
	{"[4]/DAYS:during:WEEKS", weekday(time.Thursday)},
	{"[5]/DAYS:during:WEEKS", weekday(time.Friday)},
	{"[6]/DAYS:during:WEEKS", weekday(time.Saturday)},
	{"[7]/DAYS:during:WEEKS", weekday(time.Sunday)},
	{"[6,7]/DAYS:during:WEEKS", weekday(time.Saturday, time.Sunday)},
	{"[n]/DAYS:during:MONTHS", monthDays(-1)},
	{"[1]/(([1]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(1, time.Monday)},
	{"[2]/(([2]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(2, time.Tuesday)},
	{"[3]/(([5]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(3, time.Friday)},
	{"[4]/(([4]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(4, time.Thursday)},
	{"[1]/(([3]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(1, time.Wednesday)},
	{"[n]/(([5]/(DAYS:during:WEEKS)):during:MONTHS)", nthWeekday(-1, time.Friday)},
	{"([1,2,3,4,5]/DAYS:during:WEEKS) - holidays", businessDay},
	{"([1]/DAYS:during:WEEKS) - holidays", and(weekday(time.Monday), not(isHoliday))},
	{"([5]/DAYS:during:WEEKS) - holidays", and(weekday(time.Friday), not(isHoliday))},
	{"[1]/((([1,2,3,4,5]/DAYS:during:WEEKS) - holidays):during:MONTHS)", firstBusinessDayOfMonth},
	{"[2]/((([1,2,3,4,5]/DAYS:during:WEEKS) - holidays):during:MONTHS)", secondBusinessDayOfMonth},
}, dayOfMonthExprs()...)

func dayOfMonthExprs() []cronExpr {
	var out []cronExpr
	for k := 1; k <= 28; k++ {
		out = append(out, cronExpr{fmt.Sprintf("[%d]/DAYS:during:MONTHS", k), monthDays(k)})
	}
	return out
}

// secondBusinessDayOfMonth: a business day with exactly one business day
// before it in its month.
func secondBusinessDayOfMonth(d day, hol map[day]bool) bool {
	if !businessDay(d, hol) {
		return false
	}
	n := 0
	for e := d - 1; e.time().Month() == d.time().Month(); e-- {
		if businessDay(e, hol) {
			n++
		}
	}
	return n == 1
}

var (
	cronDay0 = dayOf(1993, 1, 1) // the clock starts at noon of this day
)

type firingRec struct {
	rule int32
	at   int64
}

type cronState struct {
	sys     *calsys.System
	clock   *calsys.VirtualClock
	cron    *calsys.DBCron
	jr      *calsys.FiringJournal
	jpath   string
	base    int64 // epoch seconds of cronDay0's midnight
	defineS float64

	// written by rule actions, which DBCRON runs on the AdvanceTo caller's
	// goroutine
	stepStart time.Time
	firings   []firingRec
	fired     atomic.Int64 // len(firings), for the sampler goroutine
	lags      []time.Duration
}

type cronBench struct {
	cfg    *config
	expr   []int // rule -> index into cronExprs
	hol0   []day // holidays at setup
	builds int
}

func newCronBench(cfg *config) *cronBench {
	b := &cronBench{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.seed))
	for r := 0; r < cronRules; r++ {
		b.expr = append(b.expr, r%len(cronExprs))
	}
	rng.Shuffle(len(b.expr), func(i, j int) { b.expr[i], b.expr[j] = b.expr[j], b.expr[i] })
	b.hol0 = holidaySet(rng, 1993, 1999)
	return b
}

func (b *cronBench) build() (*cronState, error) {
	b.builds++
	clock := calsys.NewVirtualClock(0)
	sys, err := calsys.Open(calsys.WithClock(clock))
	if err != nil {
		return nil, err
	}
	st := &cronState{sys: sys, clock: clock, base: sys.SecondsOf(civilOf(cronDay0))}
	clock.Set(st.base + 12*3600)
	if err := sys.DefineStoredCalendar("holidays", pointCal(sys, b.hol0)); err != nil {
		return nil, err
	}
	defs := make([]calsys.TemporalRuleDef, cronRules)
	for r := range defs {
		r32 := int32(r)
		name := fmt.Sprintf("rule%05d", r)
		defs[r] = calsys.TemporalRuleDef{Name: name, CalExpr: cronExprs[b.expr[r]].src, Action: calsys.FuncAction{
			Name: name,
			Fn: func(_ *calsys.Txn, _ *calsys.Event, at int64) error {
				st.lags = append(st.lags, time.Since(st.stepStart))
				st.firings = append(st.firings, firingRec{rule: r32, at: at})
				st.fired.Add(1)
				return nil
			},
		}}
	}
	t0 := time.Now()
	if err := sys.OnCalendars(defs); err != nil {
		return nil, err
	}
	st.defineS = time.Since(t0).Seconds()
	dir := filepath.Join(b.cfg.workDir, fmt.Sprintf("journal%d", b.builds))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, err
	}
	st.jpath = filepath.Join(dir, "firings.journal")
	if st.jr, err = journal.Open(st.jpath); err != nil {
		return nil, err
	}
	st.cron, err = sys.StartDurableDBCron(cronT, calsys.CronOptions{Journal: st.jr, Seed: b.cfg.seed})
	if err != nil {
		st.jr.Close()
		return nil, err
	}
	return st, nil
}

func pointCal(sys *calsys.System, ds []day) *calsys.Calendar {
	ticks := make([]calsys.Tick, len(ds))
	for i, d := range ds {
		ticks[i] = sys.DayTickOf(civilOf(d))
	}
	cal, err := calsys.PointCalendar(calsys.Day, ticks...)
	if err != nil {
		panic(err) // sorted distinct days after the epoch always form a calendar
	}
	return cal
}

// changeHolidays edits the holiday set on days >= c+changeMargin: two
// holidays in the following year are dropped and two new ones are added.
func changeHolidays(rng *rand.Rand, hol []day, c day) []day {
	lo := c + changeMargin
	var out []day
	var later []int
	for i, d := range hol {
		if d >= lo && d < lo+365 {
			later = append(later, i)
		}
	}
	drop := map[int]bool{}
	for k := 0; k < 2 && len(later) > 0; k++ {
		drop[later[rng.Intn(len(later))]] = true
	}
	seen := map[day]bool{}
	for i, d := range hol {
		if !drop[i] {
			out = append(out, d)
			seen[d] = true
		}
	}
	for k := 0; k < 2; k++ {
		d := lo + day(rng.Intn(60))
		if !seen[d] {
			out = append(out, d)
			seen[d] = true
		}
	}
	sortDays(out)
	return out
}

func runCron(cfg *config) (*result, error) {
	b := newCronBench(cfg)
	res := &result{layers: map[string]float64{}}
	var defines []float64
	st, setupS, err := timeSetup(func() (*cronState, error) {
		s, err := b.build()
		if err == nil {
			defines = append(defines, s.defineS)
		}
		return s, err
	}, func(s *cronState) {
		s.cron.Close()
		s.jr.Close() // a discarded build's journal; nothing was fired into it
	})
	if err != nil {
		return nil, err
	}
	res.setupS = setupS
	fsUS, err := fsyncMicros(filepath.Dir(st.jpath))
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	hol := b.hol0
	now := st.base + 12*3600
	var steps, changeSteps []time.Duration
	changes := 0
	var opID int64
	start := startPhase(func() int { return int(st.fired.Load()) })
	done := timedDone(start.at, cfg.seconds, func() int { return len(st.firings) })
	// One round is one simulated day, noon to noon: the 18:00 probe arms
	// the midnight firings, which run in the midnight step. Rounds end at
	// noon, when no armed firing is pending.
	for !done(0) {
		for k := 0; k < 4; k++ {
			now += cronT
			st.clock.Set(now)
			d := cronDay0 + day((now-st.base)/86400)
			changed := false
			if k == 3 && (d-cronDay0)%changeEvery == 1 {
				hol = changeHolidays(rng, hol, d)
				var err error
				tr.layer("catalog.write", opID, -1, func() { err = st.sys.ReplaceStoredCalendar("holidays", pointCal(st.sys, hol)) })
				if err != nil {
					return nil, err
				}
				changed = true
				changes++
			}
			root := tr.begin("rules.step", opID, -1, false)
			st.stepStart = time.Now()
			if _, err := st.cron.AdvanceTo(now); err != nil {
				return nil, err
			}
			took := time.Since(st.stepStart)
			tr.end(root)
			opID++
			if changed {
				changeSteps = append(changeSteps, took)
			} else {
				steps = append(steps, took)
			}
		}
	}
	res.timed.lats = [][]time.Duration{st.lags}
	endPhase(&res.timed, start)
	notePhase(&res.timed)
	note("simulated %d days, %d holiday changes", (now-st.base)/86400, changes)
	if changes == 0 {
		res.violate("cron-durable: no holiday change, so no catalog-change recompute, in the timed phase")
	}
	if err := st.jr.Close(); err != nil {
		return nil, err
	}

	// Checks: each rule fired exactly on its calendar's dates in
	// (cronDay0, last], against the final holiday set.
	last := cronDay0 + day((now-st.base)/86400)
	holSet := daySet(hol)
	want := make([][]day, len(cronExprs))
	for i, e := range cronExprs {
		want[i] = expected(e.pred, cronDay0+1, last, holSet)
	}
	got := make([][]day, cronRules)
	res.attempted = len(st.firings)
	for _, f := range st.firings {
		off := f.at - st.base
		if off%86400 != 0 {
			res.fail("rule%05d fired at %d, not at a midnight", f.rule, f.at)
			continue
		}
		got[f.rule] = append(got[f.rule], cronDay0+day(off/86400))
	}
	for r := range got {
		sort.Slice(got[r], func(i, j int) bool { return got[r][i] < got[r][j] })
		if err := sameDays(got[r], want[b.expr[r]]); err != nil {
			res.fail("rule%05d on %q: %v", r, cronExprs[b.expr[r]].src, err)
		}
	}
	jstats, err := journalStats(st.jpath)
	if err != nil {
		return nil, err
	}
	if jstats.pending != 0 {
		res.fail("journal replay shows %d pending firings", jstats.pending)
	}

	if cfg.trace {
		l := res.layers
		goLayers(l, &res.timed)
		n := float64(len(st.firings))
		l["disk.fsync_us"] = fsUS
		sort.Float64s(defines)
		l["rules.define_s"] = defines[len(defines)/2]
		l["rules.step_ms"] = meanMS(steps)
		l["rules.change_step_ms"] = meanMS(changeSteps)
		l["journal.fsyncs_per_firing"] = float64(jstats.fsyncs) / n
		l["journal.bytes_per_firing"] = float64(jstats.bytes) / n
		dur, _, _ := totals([]*tracer{tr}, func(int64) bool { return true })
		l["catalog.write_us_per_op"] = us(dur["catalog.write"]) / n
		l["trace.overhead_pct"] = overheadPct([]*tracer{tr}, res.timed.wall)
		if err := writeSpans(cfg, []*tracer{tr}); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func meanMS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

type jstats struct {
	pending int
	fsyncs  int   // records written with an fsync, counted from the file
	bytes   int64 // bytes after the header line
}

// journalStats replays the journal file and counts its fsynced records: each
// A, D and K record is synced on its own, and each run of S records is one
// probe batch synced once. (Every S record here comes from a probe: a fired
// rule's next trigger is at least a day away, past the probe window.)
func journalStats(path string) (jstats, error) {
	var js jstats
	f, err := os.Open(path)
	if err != nil {
		return js, err
	}
	defer f.Close()
	state, err := journal.Replay(f)
	if err != nil {
		return js, err
	}
	js.pending = len(state.Pending)
	if _, err := f.Seek(0, 0); err != nil {
		return js, err
	}
	sc := bufio.NewScanner(f)
	first, inS := true, false
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			continue
		}
		js.bytes += int64(len(line)) + 1
		switch {
		case strings.HasPrefix(line, "S "):
			if !inS {
				js.fsyncs++
			}
			inS = true
			continue
		case strings.HasPrefix(line, "A "), strings.HasPrefix(line, "D "), strings.HasPrefix(line, "K "):
			js.fsyncs++
		}
		inS = false
	}
	return js, sc.Err()
}
