package synth

import (
	"cmp"
	"slices"
	"time"

	"manrsmeter/internal/astopo"
)

// originTable is the world's one record of who announces what: every
// origination the world announces at some date, sorted by (origin,
// prefix), and the rows among them announced only inside a window (the
// §8.5 churn). OriginationsAt filters it; the graph holds topology only.
// Generation and LoadFiles build it, and it is immutable once built, so
// forks share it.
type originTable struct {
	rows  []astopo.Origination
	churn []churnRow // ascending by row
}

// churnRow is a row announced only inside its window.
type churnRow struct {
	row int
	window
}

type window struct{ from, to time.Time }

// covers reports whether t falls in the window [from, to).
func (wd window) covers(t time.Time) bool { return !t.Before(wd.from) && t.Before(wd.to) }

// compareOriginations orders originations by origin, then prefix: the
// table's order.
func compareOriginations(a, b astopo.Origination) int {
	if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
		return c
	}
	return a.Prefix.Compare(b.Prefix)
}

// newOriginTable returns the table of rows, announced always, in any
// order (rows is sorted in place), and of churn's originations, each
// announced inside its window and none among rows.
func newOriginTable(rows []astopo.Origination, churn map[astopo.Origination]window) *originTable {
	if !slices.IsSortedFunc(rows, compareOriginations) {
		slices.SortFunc(rows, compareOriginations)
	}
	add := make([]astopo.Origination, 0, len(churn))
	for og := range churn {
		add = append(add, og)
	}
	slices.SortFunc(add, compareOriginations)
	return (&originTable{rows: rows}).with(add, churn)
}

// has reports whether og is a row of the table, churn rows included.
func (tab *originTable) has(og astopo.Origination) bool {
	_, found := slices.BinarySearchFunc(tab.rows, og, compareOriginations)
	return found
}

// with returns a table of tab's rows and add's, which is sorted and
// holds none of tab's rows; a row of add that windows maps is announced
// only inside its window. tab is left as it was: one copy of its rows
// takes in every addition at once.
func (tab *originTable) with(add []astopo.Origination, windows map[astopo.Origination]window) *originTable {
	if len(add) == 0 {
		return tab
	}
	out := &originTable{
		rows:  make([]astopo.Origination, 0, len(tab.rows)+len(add)),
		churn: make([]churnRow, 0, len(tab.churn)+len(windows)),
	}
	from, next := 0, 0 // tab's first row and churn row not yet copied
	copyTo := func(to int) {
		shift := len(out.rows) - from
		out.rows = append(out.rows, tab.rows[from:to]...)
		for ; next < len(tab.churn) && tab.churn[next].row < to; next++ {
			c := tab.churn[next]
			c.row += shift
			out.churn = append(out.churn, c)
		}
		from = to
	}
	for _, og := range add {
		at, _ := slices.BinarySearchFunc(tab.rows[from:], og, compareOriginations)
		copyTo(from + at)
		if wd, ok := windows[og]; ok {
			out.churn = append(out.churn, churnRow{row: len(out.rows), window: wd})
		}
		out.rows = append(out.rows, og)
	}
	copyTo(len(tab.rows))
	return out
}

// originations returns the world's origination table, taking in first
// the rows AddOrigination added since the last call.
func (w *World) originations() *originTable {
	w.origMu.Lock()
	defer w.origMu.Unlock()
	if len(w.origAdd) > 0 {
		w.origTab = w.origTab.with(w.origAdd, nil)
		w.origAdd = nil
	}
	return w.origTab
}

// OriginationsAt returns the announcements active at time t, ascending
// by origin, then prefix, as a slice the caller owns. It filters the
// world's origination table: the runs between churn rows inactive at t
// are copied whole, into a slice of exactly the result's size.
func (w *World) OriginationsAt(t time.Time) []astopo.Origination {
	tab := w.originations()
	gone := 0
	for _, c := range tab.churn {
		if !c.covers(t) {
			gone++
		}
	}
	out := make([]astopo.Origination, 0, len(tab.rows)-gone)
	from := 0
	for _, c := range tab.churn {
		if !c.covers(t) {
			out = append(out, tab.rows[from:c.row]...)
			from = c.row + 1
		}
	}
	return append(out, tab.rows[from:]...)
}
