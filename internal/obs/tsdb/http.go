package tsdb

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"
)

// sinceNanos resolves the `?since=` filter: a Go duration ("90s",
// "5m") means that-long-ago relative to now, a bare integer means unix
// seconds, empty (or unparseable) means everything retained.
func sinceNanos(s string, now time.Time) int64 {
	if s == "" {
		return 0
	}
	if d, err := time.ParseDuration(s); err == nil && d > 0 {
		return now.Add(-d).UnixNano()
	}
	if sec, err := strconv.ParseInt(s, 10, 64); err == nil && sec > 0 {
		return sec * int64(time.Second)
	}
	return 0
}

// Handler serves the store as JSON at /debug/timeline: an array of
// {name, kind, resolution_seconds, points} objects, points as
// [unixNanos, value] pairs oldest-first. Query filters compose:
// `?metric=` substring-matches series names, `?cell=` keeps one cell's
// series (matched via the exbox_cell_<id>_ naming convention), and
// `?since=` trims old points (duration-ago like "5m", or unix
// seconds).
func (db *DB) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		out := db.Query(q.Get("metric"), q.Get("cell"), sinceNanos(q.Get("since"), time.Now()))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(out)
	})
}
