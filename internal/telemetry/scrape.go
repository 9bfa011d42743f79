package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is the pull side of the telemetry plane: a parser for the
// Prometheus text exposition format the monitoring engine renders, so
// the fleet collector can scrape every daemon's existing /metrics
// surface without new wire protocols.

// ScrapedSample is one sample line from an exposition page.
type ScrapedSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed exposition page.
type Scrape struct {
	// Types maps metric family name → TYPE (counter, gauge, histogram).
	Types map[string]string
	// Samples holds every sample line in page order.
	Samples []ScrapedSample
}

// Value returns the first sample matching name and all given labels;
// ok reports whether one was found.
func (s Scrape) Value(name string, labels map[string]string) (v float64, ok bool) {
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		match := true
		for k, want := range labels {
			if sm.Labels[k] != want {
				match = false
				break
			}
		}
		if match {
			return sm.Value, true
		}
	}
	return 0, false
}

// ParseExposition parses a text exposition page. Unknown or malformed
// lines are an error: the collector only ever scrapes the monitoring
// engine's own renderer, so any surprise means a real bug.
func ParseExposition(r io.Reader) (Scrape, error) {
	s := Scrape{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				fields := strings.Fields(rest)
				if len(fields) == 2 {
					s.Types[fields[0]] = fields[1]
				}
			}
			continue
		}
		sm, err := parseSampleLine(line)
		if err != nil {
			return Scrape{}, fmt.Errorf("telemetry: exposition line %d: %w", lineNo, err)
		}
		s.Samples = append(s.Samples, sm)
	}
	if err := sc.Err(); err != nil {
		return Scrape{}, err
	}
	return s, nil
}

// parseSampleLine parses `name{k="v",...} value`.
func parseSampleLine(line string) (ScrapedSample, error) {
	var sm ScrapedSample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return sm, fmt.Errorf("no value in %q", line)
	} else {
		sm.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote, escaped := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case escaped:
				escaped = false
			case inQuote && c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return sm, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return sm, err
		}
		sm.Labels = labels
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return sm, fmt.Errorf("bad value in %q: %w", line, err)
	}
	sm.Value = v
	return sm, nil
}

// parseLabels parses `k="v",k2="v2"` with exposition escaping undone.
func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label pair in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		var val strings.Builder
		i := 1
		for ; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		s = strings.TrimPrefix(s[i+1:], ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// ScrapedHistogram is one histogram family member reassembled from its
// _bucket/_sum/_count sample lines.
type ScrapedHistogram struct {
	// Name is the family base name (without _bucket/_sum/_count).
	Name string
	// Labels are the family labels minus le.
	Labels map[string]string
	// Bounds are the finite upper bounds (seconds, ascending);
	// Cumulative has len(Bounds)+1 entries, last is +Inf.
	Bounds     []float64
	Cumulative []uint64
	Sum        float64
	Count      uint64
}

// labelKey renders labels (minus le) deterministically for grouping.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// Histograms reassembles every histogram family on the page.
func (s Scrape) Histograms() []ScrapedHistogram {
	type entry struct {
		h       *ScrapedHistogram
		buckets map[float64]uint64
		hasInf  bool
		inf     uint64
	}
	byKey := map[string]*entry{}
	var order []string
	get := func(base string, labels map[string]string) *entry {
		key := base + "|" + labelKey(labels)
		e, ok := byKey[key]
		if !ok {
			rest := make(map[string]string, len(labels))
			for k, v := range labels {
				if k != "le" {
					rest[k] = v
				}
			}
			e = &entry{
				h:       &ScrapedHistogram{Name: base, Labels: rest},
				buckets: map[float64]uint64{},
			}
			byKey[key] = e
			order = append(order, key)
		}
		return e
	}
	for _, sm := range s.Samples {
		switch {
		case strings.HasSuffix(sm.Name, "_bucket"):
			base := strings.TrimSuffix(sm.Name, "_bucket")
			if s.Types[base] != "histogram" {
				continue
			}
			e := get(base, sm.Labels)
			le := sm.Labels["le"]
			if le == "+Inf" {
				e.hasInf = true
				e.inf = uint64(sm.Value)
				continue
			}
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			e.buckets[ub] = uint64(sm.Value)
		case strings.HasSuffix(sm.Name, "_sum"):
			base := strings.TrimSuffix(sm.Name, "_sum")
			if s.Types[base] != "histogram" {
				continue
			}
			get(base, sm.Labels).h.Sum = sm.Value
		case strings.HasSuffix(sm.Name, "_count"):
			base := strings.TrimSuffix(sm.Name, "_count")
			if s.Types[base] != "histogram" {
				continue
			}
			get(base, sm.Labels).h.Count = uint64(sm.Value)
		}
	}
	out := make([]ScrapedHistogram, 0, len(order))
	for _, key := range order {
		e := byKey[key]
		bounds := make([]float64, 0, len(e.buckets))
		for ub := range e.buckets {
			bounds = append(bounds, ub)
		}
		sort.Float64s(bounds)
		cum := make([]uint64, 0, len(bounds)+1)
		for _, ub := range bounds {
			cum = append(cum, e.buckets[ub])
		}
		if e.hasInf {
			cum = append(cum, e.inf)
		} else {
			cum = append(cum, e.h.Count)
		}
		e.h.Bounds = bounds
		e.h.Cumulative = cum
		out = append(out, *e.h)
	}
	return out
}

// Sub returns the delta h − older (same bounds assumed: both sides
// come from the same registry). Mismatched shapes return h unchanged.
func (h ScrapedHistogram) Sub(older ScrapedHistogram) ScrapedHistogram {
	if len(older.Cumulative) != len(h.Cumulative) {
		return h
	}
	out := h
	out.Cumulative = make([]uint64, len(h.Cumulative))
	for i := range h.Cumulative {
		if h.Cumulative[i] > older.Cumulative[i] {
			out.Cumulative[i] = h.Cumulative[i] - older.Cumulative[i]
		}
	}
	out.Sum = h.Sum - older.Sum
	out.Count = 0
	if h.Count > older.Count {
		out.Count = h.Count - older.Count
	}
	return out
}

// Merge adds other's buckets into h (fleet-wide aggregation across
// workers scraped with identical bound sets). Mismatched shapes are
// ignored.
func (h *ScrapedHistogram) Merge(other ScrapedHistogram) {
	if len(h.Bounds) == 0 {
		h.Bounds = append([]float64(nil), other.Bounds...)
		h.Cumulative = make([]uint64, len(other.Cumulative))
	}
	if len(other.Cumulative) != len(h.Cumulative) {
		return
	}
	for i, c := range other.Cumulative {
		h.Cumulative[i] += c
	}
	h.Sum += other.Sum
	h.Count += other.Count
}

// Quantile interpolates the q-quantile (seconds) from the cumulative
// buckets. The +Inf bucket resolves to the last finite bound.
func (h ScrapedHistogram) Quantile(q float64) float64 {
	if len(h.Cumulative) == 0 {
		return 0
	}
	n := h.Cumulative[len(h.Cumulative)-1]
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(q * float64(n))
	if target == 0 {
		target = 1
	}
	for i, cum := range h.Cumulative {
		if cum < target {
			continue
		}
		if i >= len(h.Bounds) {
			// +Inf bucket: the best point estimate is the last finite bound.
			if len(h.Bounds) == 0 {
				return 0
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = h.Bounds[i-1]
			below = h.Cumulative[i-1]
		}
		inBucket := cum - below
		if inBucket == 0 {
			return h.Bounds[i]
		}
		frac := float64(target-below) / float64(inBucket)
		return lower + frac*(h.Bounds[i]-lower)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// FracAtOrBelow returns the fraction of observations at or below v
// seconds, interpolating the straddling bucket — the good fraction of
// a scraped latency objective.
func (h ScrapedHistogram) FracAtOrBelow(v float64) float64 {
	if len(h.Cumulative) == 0 {
		return 1
	}
	n := h.Cumulative[len(h.Cumulative)-1]
	if n == 0 {
		return 1
	}
	prevBound, prevCum := 0.0, uint64(0)
	for i, ub := range h.Bounds {
		if v < ub {
			inBucket := float64(h.Cumulative[i] - prevCum)
			width := ub - prevBound
			frac := 1.0
			if width > 0 && v > prevBound {
				frac = (v - prevBound) / width
			} else if v <= prevBound {
				frac = 0
			}
			return (float64(prevCum) + frac*inBucket) / float64(n)
		}
		prevBound, prevCum = ub, h.Cumulative[i]
	}
	return float64(prevCum) / float64(n)
}
