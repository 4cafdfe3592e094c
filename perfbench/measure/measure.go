// Package measure holds the serving benchmark's own arithmetic, free of
// any dependency on the program under test: the percentile rule, /proc
// parsing, metric-name checks, Prometheus exposition parsing with
// histogram deltas, the decision-trace oracle comparison, span self
// times, and the latency budget table. The generator (../gen) drives the
// serving stack and hands its raw observations to these functions.
package measure

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// MinTail is how many samples must lie beyond a reported percentile.
// A p99 therefore needs at least 1000 samples.
const MinTail = 10

// Percentile returns the p-th percentile (0 < p < 100) of sorted by
// linear interpolation between closest ranks (R-7). It fails when fewer
// than MinTail samples lie beyond p, the point past which a tail
// percentile is one or two unlucky samples rather than a measurement.
func Percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("measure: percentile %v out of (0,100)", p)
	}
	if tail := int(math.Floor(float64(n) * (100 - p) / 100)); tail < MinTail {
		return 0, fmt.Errorf("measure: p%v of %d samples has %d beyond it, need %d", p, n, tail, MinTail)
	}
	h := float64(n-1) * p / 100
	lo := int(h)
	if lo+1 >= n {
		return sorted[n-1], nil
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo]), nil
}

// Median returns the median of xs (0 for none) without reordering xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ClockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const ClockTicks = 100

// ParseProcStat extracts user and system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func ParseProcStat(b []byte) (user, sys time.Duration, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, errors.New("measure: /proc stat without command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("measure: /proc stat has %d fields after the command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("measure: utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("measure: stime: %w", err)
	}
	tick := time.Second / ClockTicks
	return time.Duration(ut) * tick, time.Duration(st) * tick, nil
}

// ParsePeakRSS extracts VmHWM, the peak resident set, in bytes from the
// contents of /proc/<pid>/status.
func ParsePeakRSS(b []byte) (uint64, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("measure: malformed %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("measure: VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, errors.New("measure: no VmHWM line in /proc status")
}

// ProcCPU reads a process's user+system CPU time so far.
func ProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := ParseProcStat(b)
	return u + s, err
}

// ProcPeakRSS reads a process's peak resident set in bytes.
func ProcPeakRSS(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return ParsePeakRSS(b)
}

// ValidName reports whether s may name a metric or workload: 1 to 64
// letters, digits, '_', '.' and '-', starting with a letter or digit.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// ValidUnit reports whether s may be a metric unit: 1 to 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func ValidUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !alnum(c) && !strings.ContainsRune("_/%.-", rune(c)) {
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics collects named values, rejecting bad names, bad units,
// duplicates and non-finite values. The first rejection is kept in Err so
// call sites stay linear.
type Metrics struct {
	vals map[string]Value
	err  error
}

// Put records one metric.
func (m *Metrics) Put(name, unit string, v float64) {
	if m.vals == nil {
		m.vals = make(map[string]Value)
	}
	var err error
	switch _, dup := m.vals[name]; {
	case !ValidName(name):
		err = fmt.Errorf("measure: invalid metric name %q", name)
	case !ValidUnit(unit):
		err = fmt.Errorf("measure: metric %s: invalid unit %q", name, unit)
	case dup:
		err = fmt.Errorf("measure: metric %s reported twice", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		err = fmt.Errorf("measure: metric %s is %v", name, v)
	}
	if err != nil {
		if m.err == nil {
			m.err = err
		}
		return
	}
	m.vals[name] = Value{Value: v, Unit: unit}
}

// Err returns the first rejected Put.
func (m *Metrics) Err() error { return m.err }

// Result is the benchmark's one-line verdict.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewResult assembles the verdict from collected metrics.
func NewResult(correct bool, attempted, failed uint64, m *Metrics) (Result, error) {
	if err := m.Err(); err != nil {
		return Result{}, err
	}
	if attempted == 0 {
		return Result{}, errors.New("measure: nothing attempted")
	}
	return Result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m.vals}, nil
}

// JSON renders the verdict on one line.
func (r Result) JSON() ([]byte, error) { return json.Marshal(r) }

// CompareTraces checks every device's served decision trace against the
// oracle's, byte for byte. width is the number of levels per period, used
// only to name the period of the first divergence.
func CompareTraces(oracle, served [][]byte, width int) error {
	if len(oracle) != len(served) {
		return fmt.Errorf("measure: oracle has %d devices, served %d", len(oracle), len(served))
	}
	for d := range served {
		o, s := oracle[d], served[d]
		if len(o) != len(s) {
			return fmt.Errorf("measure: device %d: oracle decided %d levels, served %d", d, len(o), len(s))
		}
		if i := firstDiff(o, s); i >= 0 {
			return fmt.Errorf("measure: device %d period %d cluster %d: served level %d, oracle %d",
				d, i/width, i%width, s[i], o[i])
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// Span is one timed call recorded by the traced run. Spans of one frame
// share Frame; Parent is the kind of the enclosing span (-1 for a root).
type Span struct {
	Frame      uint64
	Kind       int8
	Parent     int8
	Start, End int64 // ns since the trace epoch
}

// SelfTimes sums each kind's self time in ns: its own duration minus the
// time its direct children cover. Children never overlap their siblings
// in this trace (the generator is one closed loop per worker), so the
// covered time is the sum of child durations.
func SelfTimes(spans []Span, kinds int) []float64 {
	type key struct {
		frame uint64
		kind  int8
	}
	childNs := make(map[key]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[key{s.Frame, s.Parent}] += s.End - s.Start
		}
	}
	self := make([]float64, kinds)
	for _, s := range spans {
		self[s.Kind] += float64(s.End - s.Start - childNs[key{s.Frame, s.Kind}])
	}
	return self
}

// Split groups sample indices by interval: group i holds the samples with
// bounds[i] <= at < bounds[i+1]. Samples outside [bounds[0],
// bounds[len-1]) belong to no group.
func Split(at []int64, bounds []int64) [][]int {
	if len(bounds) < 2 {
		return nil
	}
	groups := make([][]int, len(bounds)-1)
	for i, t := range at {
		j := sort.Search(len(bounds), func(j int) bool { return bounds[j] > t }) - 1
		if j >= 0 && j < len(groups) {
			groups[j] = append(groups[j], i)
		}
	}
	return groups
}

// CPUTimes is a CPU's time by state, in clock ticks, from /proc/stat.
type CPUTimes struct {
	Idle, Softirq, Steal, Total uint64
}

// Sub is the time spent between two readings.
func (t CPUTimes) Sub(u CPUTimes) CPUTimes {
	return CPUTimes{Idle: t.Idle - u.Idle, Softirq: t.Softirq - u.Softirq, Steal: t.Steal - u.Steal, Total: t.Total - u.Total}
}

// ParseCPUTimes extracts, from the contents of /proc/stat, the times of
// one CPU. Steal is time the hypervisor gave to other guests.
func ParseCPUTimes(b []byte, cpu int) (CPUTimes, error) {
	name := "cpu" + strconv.Itoa(cpu)
	var f []string
	for _, line := range strings.Split(string(b), "\n") {
		if f = strings.Fields(line); len(f) > 0 && f[0] == name {
			break
		}
		f = nil
	}
	if len(f) < 9 {
		return CPUTimes{}, fmt.Errorf("measure: /proc/stat has no %s line of at least 8 times", name)
	}
	var t CPUTimes
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return CPUTimes{}, fmt.Errorf("measure: /proc/stat %s field %d: %w", name, i+1, err)
		}
		if i < 8 { // guest times (fields 9, 10) are already in user and nice
			t.Total += v
		}
		switch i {
		case 3:
			t.Idle = v
		case 6:
			t.Softirq = v
		case 7:
			t.Steal = v
		}
	}
	return t, nil
}
