package main

// The independent side of every output check: dates are computed here with
// Go's time package, never with the program's chronology.

import (
	"fmt"
	"time"
)

// day is a civil date as days since 1970-01-01 (UTC).
type day int64

func dayOf(y int, m time.Month, d int) day {
	return day(time.Date(y, m, d, 0, 0, 0, 0, time.UTC).Unix() / 86400)
}

func (d day) time() time.Time { return time.Unix(int64(d)*86400, 0).UTC() }

func (d day) String() string { return d.time().Format("2006-01-02") }

// parseDay reads a YYYY-MM-DD date.
func parseDay(s string) (day, error) {
	num := func(a, b int) int {
		v := 0
		for i := a; i < b; i++ {
			if s[i] < '0' || s[i] > '9' {
				return -1
			}
			v = v*10 + int(s[i]-'0')
		}
		return v
	}
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, fmt.Errorf("bad date %q", s)
	}
	y, m, d := num(0, 4), num(5, 7), num(8, 10)
	if y < 0 || m < 1 || m > 12 || d < 1 {
		return 0, fmt.Errorf("bad date %q", s)
	}
	r := dayOf(y, time.Month(m), d)
	if r.time().Day() != d {
		return 0, fmt.Errorf("bad date %q", s)
	}
	return r, nil
}

// addYears moves d by n calendar years (Feb 29 normalizes to Mar 1).
func (d day) addYears(n int) day {
	t := d.time().AddDate(n, 0, 0)
	return day(t.Unix() / 86400)
}

func daysInMonth(t time.Time) int {
	return time.Date(t.Year(), t.Month()+1, 0, 0, 0, 0, 0, time.UTC).Day()
}

// pred says whether a date belongs to a calendar, given the holiday set.
type pred func(d day, hol map[day]bool) bool

func weekday(ws ...time.Weekday) pred {
	return func(d day, _ map[day]bool) bool {
		wd := d.time().Weekday()
		for _, w := range ws {
			if wd == w {
				return true
			}
		}
		return false
	}
}

func anyDay(day, map[day]bool) bool { return true }

// monthDays matches month days; negative values count from the month's end
// (-1 is the last day).
func monthDays(ks ...int) pred {
	return func(d day, _ map[day]bool) bool {
		t := d.time()
		n := daysInMonth(t)
		for _, k := range ks {
			if k > 0 && t.Day() == k || k < 0 && t.Day() == n+1+k {
				return true
			}
		}
		return false
	}
}

// nthWeekday matches the n-th given weekday of the month (n = -1: the last).
func nthWeekday(n int, w time.Weekday) pred {
	return func(d day, _ map[day]bool) bool {
		t := d.time()
		if t.Weekday() != w {
			return false
		}
		if n < 0 {
			return t.Day()+7 > daysInMonth(t)
		}
		return (t.Day()-1)/7 == n-1
	}
}

func inMonth(m time.Month, p pred) pred {
	return func(d day, hol map[day]bool) bool { return d.time().Month() == m && p(d, hol) }
}

func isHoliday(d day, hol map[day]bool) bool { return hol[d] }

func isWeekday(d day) bool {
	wd := d.time().Weekday()
	return wd != time.Saturday && wd != time.Sunday
}

func businessDay(d day, hol map[day]bool) bool { return isWeekday(d) && !hol[d] }

func not(p pred) pred { return func(d day, hol map[day]bool) bool { return !p(d, hol) } }

func and(ps ...pred) pred {
	return func(d day, hol map[day]bool) bool {
		for _, p := range ps {
			if !p(d, hol) {
				return false
			}
		}
		return true
	}
}

func or(ps ...pred) pred {
	return func(d day, hol map[day]bool) bool {
		for _, p := range ps {
			if p(d, hol) {
				return true
			}
		}
		return false
	}
}

// firstBusinessDayOfMonth: a business day with no business day before it in
// its month.
func firstBusinessDayOfMonth(d day, hol map[day]bool) bool {
	if !businessDay(d, hol) {
		return false
	}
	for e := d - 1; e.time().Month() == d.time().Month(); e-- {
		if businessDay(e, hol) {
			return false
		}
	}
	return true
}

// expirationDay is the option-expiration date: the month's third Friday, or
// the last business day before it when that Friday is a holiday.
func expirationDay(d day, hol map[day]bool) bool {
	t := d.time()
	third := dayOf(t.Year(), t.Month(), 1)
	for third.time().Weekday() != time.Friday {
		third++
	}
	third += 14
	if !hol[third] {
		return d == third
	}
	e := third - 1
	for !businessDay(e, hol) {
		e--
	}
	return d == e
}

// expected lists the days in [from, to] that p accepts.
func expected(p pred, from, to day, hol map[day]bool) []day {
	var out []day
	for d := from; d <= to; d++ {
		if p(d, hol) {
			out = append(out, d)
		}
	}
	return out
}

// nextAfter is the first day strictly after `after` that p accepts, scanning
// day by day up to ten years ahead.
func nextAfter(p pred, after day, hol map[day]bool) (day, bool) {
	for d := after + 1; d <= after+3660; d++ {
		if p(d, hol) {
			return d, true
		}
	}
	return 0, false
}

// sameDays compares a produced day list with the expected one.
func sameDays(got, want []day) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d days, want %d (%s)", len(got), len(want), firstDiff(got, want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("day %d is %s, want %s", i, got[i], want[i])
		}
	}
	return nil
}

func firstDiff(got, want []day) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("first difference at %d: %s vs %s", i, got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return "extra " + got[len(want)].String()
	}
	if len(want) > len(got) {
		return "missing " + want[len(got)].String()
	}
	return ""
}
