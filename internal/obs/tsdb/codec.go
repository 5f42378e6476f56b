package tsdb

import (
	"fmt"
	"math"
)

// Point marshals as the compact JSON pair [unixNanos, value]: a
// 15-minute × 1-second timeline is ~900 points per series, and the
// pair form keeps /debug/timeline responses a third the size of
// object-per-point.
func (p Point) MarshalJSON() ([]byte, error) {
	v := p.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // non-finite is not JSON; a zeroed sample beats a broken page
	}
	return fmt.Appendf(nil, "[%d,%g]", p.UnixNanos, v), nil
}

// UnmarshalJSON accepts the pair form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var t int64
	var v float64
	if _, err := fmt.Sscanf(string(b), "[%d,%g]", &t, &v); err != nil {
		return fmt.Errorf("tsdb: point %q: %w", b, err)
	}
	p.UnixNanos, p.Value = t, v
	return nil
}
