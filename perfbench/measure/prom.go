package measure

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Scrape is one Prometheus text exposition: every sample keyed by its
// series exactly as exposed, `name` or `name{k="v",...}`.
type Scrape map[string]float64

// ParseProm parses a Prometheus text exposition (format 0.0.4). Comment
// and blank lines are skipped; timestamps are not expected.
func ParseProm(text []byte) (Scrape, error) {
	s := make(Scrape)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("measure: exposition line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("measure: exposition line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// Value returns an unlabelled sample (0 when absent).
func (s Scrape) Value(name string) float64 { return s[name] }

// Hist is one histogram: per-bucket (not cumulative) counts with their
// upper bounds, ascending, the last being +Inf.
type Hist struct {
	Upper  []float64
	Counts []float64
	Sum    float64
	Count  float64
}

// Hist extracts histogram name restricted to the series carrying the
// label pair sel (e.g. `stage="bin"`). A missing histogram is empty.
func (s Scrape) Hist(name, sel string) Hist {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		labels := k[len(prefix) : len(k)-1]
		le, ok := "", false
		for _, kv := range strings.Split(labels, ",") {
			if strings.HasPrefix(kv, `le="`) {
				le = strings.Trim(kv[len("le="):], `"`)
			} else if kv == sel {
				ok = true
			}
		}
		if !ok || le == "" {
			continue
		}
		ub, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{ub, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	h := Hist{Sum: s[name+"_sum{"+sel+"}"], Count: s[name+"_count{"+sel+"}"]}
	prev := 0.0
	for _, b := range bs {
		h.Upper = append(h.Upper, b.le)
		h.Counts = append(h.Counts, b.cum-prev)
		prev = b.cum
	}
	return h
}

// Sub returns h minus an earlier scrape of the same histogram: the
// observations made between the two scrapes.
func (h Hist) Sub(earlier Hist) Hist {
	return h.combine(earlier, -1)
}

// Add merges another process's histogram of the same layout.
func (h Hist) Add(o Hist) Hist {
	return h.combine(o, 1)
}

func (h Hist) combine(o Hist, sign float64) Hist {
	if len(o.Counts) == 0 {
		return h
	}
	if len(h.Counts) == 0 {
		h = Hist{Upper: o.Upper, Counts: make([]float64, len(o.Counts))}
	}
	out := Hist{Upper: h.Upper, Counts: make([]float64, len(h.Counts)),
		Sum: h.Sum + sign*o.Sum, Count: h.Count + sign*o.Count}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i]
		if i < len(o.Counts) {
			out.Counts[i] += sign * o.Counts[i]
		}
	}
	return out
}

// Mean is the exact mean observation (Sum/Count), 0 when empty.
func (h Hist) Mean() float64 {
	if h.Count <= 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile estimates the q-th quantile, interpolating linearly inside the
// bucket that holds the target rank. A rank in the +Inf bucket reports
// that bucket's lower bound. 0 when empty.
func (h Hist) Quantile(q float64) float64 {
	var total float64
	for _, c := range h.Counts {
		total += c
	}
	if total <= 0 {
		return 0
	}
	target := q * total
	var cum, lower float64
	for i, c := range h.Counts {
		if c > 0 && cum+c >= target {
			if math.IsInf(h.Upper[i], 1) {
				return lower
			}
			return lower + (h.Upper[i]-lower)*(target-cum)/c
		}
		cum += c
		lower = h.Upper[i]
	}
	return lower
}
