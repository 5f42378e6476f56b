package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// promSample is one parsed /metrics page: series name, including any
// {label="…"} part verbatim, to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format as far as exboxd
// writes it: one "series value" pair a line, '#' comment lines, an
// optional timestamp after the value. The value is the first field after
// the series, which ends at the closing brace when there are labels —
// label values may contain spaces.
func parseProm(page []byte) (promSample, error) {
	out := make(promSample)
	for n, line := range bytes.Split(page, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		end := bytes.IndexByte(line, ' ')
		if br := bytes.IndexByte(line, '{'); br >= 0 && (end < 0 || br < end) {
			closing := bytes.LastIndexByte(line, '}')
			if closing < br {
				return nil, fmt.Errorf("metrics line %d: unclosed label set: %q", n+1, line)
			}
			end = closing + 1
		}
		if end <= 0 || end >= len(line) {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		fields := bytes.Fields(line[end:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", n+1, line)
		}
		v, err := strconv.ParseFloat(string(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		out[string(line[:end])] = v
	}
	return out, nil
}
