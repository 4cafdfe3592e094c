package measure

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 99, false}, // 9 samples beyond p99
		{1000, 99, true}, // exactly 10
		{19, 50, false},  // 9 beyond the median
		{20, 50, true},
		{100, 90, true},
		{99, 90, false},
	} {
		_, err := Percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("Percentile(n=%d, p%v): err=%v, want ok=%v", tc.n, tc.p, err, tc.ok)
		}
	}
	if _, err := Percentile(seq(1000), 100); err == nil {
		t.Error("p100 accepted")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile(seq(1000), 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 500.5 {
		t.Errorf("median of 1..1000 = %v, want 500.5", got)
	}
	got, err = Percentile(seq(1000), 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := Median(xs); m != 2.5 {
		t.Errorf("Median = %v, want 2.5", m)
	}
	if xs[0] != 3 || xs[3] != 10 {
		t.Errorf("Median reordered its input: %v", xs)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name holds a space and a ')', so only the last ')'
	// delimits it.
	stat := "4242 (pm serve) x) S 1 4242 4242 0 -1 4194560 2710 0 0 0 1234 567 0 0 20 0 9 0 12345 1000000 3000 18446744073709551615\n"
	user, sys, err := ParseProcStat([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if user != 12340*time.Millisecond || sys != 5670*time.Millisecond {
		t.Errorf("user %v sys %v, want 12.34s 5.67s", user, sys)
	}
	for _, bad := range []string{"", "4242 no-paren S 1", "4242 (pmserve) S 1 2 3", "4242 (pmserve) S 1 4242 4242 0 -1 4194560 2710 0 0 0 x 567 0"} {
		if _, _, err := ParseProcStat([]byte(bad)); err == nil {
			t.Errorf("ParseProcStat(%q) accepted", bad)
		}
	}
}

func TestParsePeakRSS(t *testing.T) {
	status := "Name:\tpmserve\nVmPeak:\t  800000 kB\nVmHWM:\t   13056 kB\nVmRSS:\t   12000 kB\n"
	got, err := ParsePeakRSS([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 13056*1024 {
		t.Errorf("VmHWM = %d bytes, want %d", got, 13056*1024)
	}
	for _, bad := range []string{"Name:\tpmserve\n", "VmHWM:\t 12 MB\n", "VmHWM:\t x kB\n"} {
		if _, err := ParsePeakRSS([]byte(bad)); err == nil {
			t.Errorf("ParsePeakRSS(%q) accepted", bad)
		}
	}
}

func TestProcReadsSelf(t *testing.T) {
	if _, err := ProcCPU(os.Getpid()); err != nil {
		t.Errorf("ProcCPU(self): %v", err)
	}
	rss, err := ProcPeakRSS(os.Getpid())
	if err != nil || rss == 0 {
		t.Errorf("ProcPeakRSS(self) = %d, %v", rss, err)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"decisions_per_s", "client.decide_ns.p50", "learn-k4", "0x", strings.Repeat("a", 64)} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "µs", "a/b", "a{b}", strings.Repeat("a", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "us/frame", "lookups/batch"} {
		if !ValidUnit(ok) {
			t.Errorf("ValidUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "µs", "per frame", strings.Repeat("s", 17)} {
		if ValidUnit(bad) {
			t.Errorf("ValidUnit(%q) = true", bad)
		}
	}
}

func TestMetricsRejectBadPuts(t *testing.T) {
	for name, put := range map[string]func(*Metrics){
		"bad name":  func(m *Metrics) { m.Put("bad name", "ms", 1) },
		"bad unit":  func(m *Metrics) { m.Put("ok2", "per frame", 1) },
		"duplicate": func(m *Metrics) { m.Put("ok", "ms", 2) },
		"NaN":       func(m *Metrics) { m.Put("nan", "ms", math.NaN()) },
		"Inf":       func(m *Metrics) { m.Put("inf", "ms", math.Inf(1)) },
	} {
		var m Metrics
		m.Put("ok", "ms", 1)
		if m.Err() != nil {
			t.Fatalf("%s: valid put rejected: %v", name, m.Err())
		}
		put(&m)
		if m.Err() == nil {
			t.Errorf("%s accepted", name)
		}
		if _, err := NewResult(true, 1, 0, &m); err == nil {
			t.Errorf("%s: result accepted", name)
		}
	}
	if _, err := NewResult(true, 0, 0, &Metrics{}); err == nil {
		t.Error("result with nothing attempted accepted")
	}
}

func TestCompareTracesCatchesInjectedLevel(t *testing.T) {
	oracle := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	served := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if err := CompareTraces(oracle, served, 2); err != nil {
		t.Fatalf("identical traces: %v", err)
	}
	served[1][3] = 0 // device 1, period 1, cluster 1
	err := CompareTraces(oracle, served, 2)
	if err == nil {
		t.Fatal("injected wrong level passed the oracle check")
	}
	if !strings.Contains(err.Error(), "device 1 period 1 cluster 1") {
		t.Errorf("error does not locate the divergence: %v", err)
	}
	if err := CompareTraces(oracle, [][]byte{{1, 2, 3, 4}, {5, 6}}, 2); err == nil {
		t.Error("short served trace passed")
	}
	if err := CompareTraces(oracle, oracle[:1], 2); err == nil {
		t.Error("missing device passed")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Frame: 1, Kind: 1, Parent: 0, Start: 10, End: 20},
		{Frame: 1, Kind: 2, Parent: 0, Start: 20, End: 50},
		{Frame: 1, Kind: 0, Parent: -1, Start: 0, End: 60},
		{Frame: 2, Kind: 2, Parent: 0, Start: 100, End: 110},
		{Frame: 2, Kind: 0, Parent: -1, Start: 95, End: 115},
	}
	got := SelfTimes(spans, 3)
	want := []float64{(60 - 40) + (20 - 10), 10, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

const exposition = `# HELP serve_decisions_total decisions
# TYPE serve_decisions_total counter
serve_decisions_total 42
serve_decide_stage_ns_bucket{stage="bin",le="64"} 0
serve_decide_stage_ns_bucket{stage="bin",le="128"} 10
serve_decide_stage_ns_bucket{stage="bin",le="256"} 30
serve_decide_stage_ns_bucket{stage="bin",le="+Inf"} 40
serve_decide_stage_ns_sum{stage="bin"} 8000
serve_decide_stage_ns_count{stage="bin"} 40
serve_decide_stage_ns_bucket{stage="http",le="64"} 5
serve_decide_stage_ns_bucket{stage="http",le="128"} 5
serve_decide_stage_ns_bucket{stage="http",le="256"} 5
serve_decide_stage_ns_bucket{stage="http",le="+Inf"} 5
serve_decide_stage_ns_sum{stage="http"} 100
serve_decide_stage_ns_count{stage="http"} 5
`

func TestParsePromHistogram(t *testing.T) {
	s, err := ParseProm([]byte(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Value("serve_decisions_total"); v != 42 {
		t.Errorf("counter = %v", v)
	}
	h := s.Hist("serve_decide_stage_ns", `stage="bin"`)
	if len(h.Counts) != 4 || h.Counts[1] != 10 || h.Counts[2] != 20 || h.Counts[3] != 10 {
		t.Fatalf("bin buckets = %+v", h)
	}
	if h.Mean() != 200 {
		t.Errorf("mean = %v, want 200", h.Mean())
	}
	// Rank 20 of 40 sits halfway through the (128,256] bucket.
	if q := h.Quantile(0.5); q != 192 {
		t.Errorf("p50 = %v, want 192", q)
	}
	// The top rank lands in +Inf and reports its lower bound.
	if q := h.Quantile(1); q != 256 {
		t.Errorf("p100 = %v, want 256", q)
	}
	d := h.Sub(s.Hist("serve_decide_stage_ns", `stage="http"`))
	if d.Count != 35 || d.Counts[0] != -5 {
		t.Errorf("delta = %+v", d)
	}
	if e := s.Hist("serve_decide_stage_ns", `stage="none"`); e.Mean() != 0 || e.Quantile(0.5) != 0 {
		t.Errorf("missing histogram not empty: %+v", e)
	}
	if _, err := ParseProm([]byte("novalue\n")); err == nil {
		t.Error("line without value accepted")
	}
}

func TestBudgetSumsToTotal(t *testing.T) {
	b, err := NewBudget(100, []BudgetRow{{"decode", 10}, {"write", 30}})
	if err != nil {
		t.Fatal(err)
	}
	if b.Sum() != 100 || b.Rows[2].Name != "unattributed" || b.Rows[2].Us != 60 {
		t.Errorf("budget = %+v", b)
	}
	if b.UnattributedShare() != 0.6 {
		t.Errorf("unattributed share = %v", b.UnattributedShare())
	}
	if !strings.Contains(b.Table("x"), "unattributed") {
		t.Error("table lacks the unattributed row")
	}
	// Within tolerance: rows overshoot by 4%.
	if _, err := NewBudget(100, []BudgetRow{{"a", 104}}); err != nil {
		t.Errorf("4%% overshoot rejected: %v", err)
	}
	if _, err := NewBudget(100, []BudgetRow{{"a", 106}}); err == nil {
		t.Error("6% overshoot accepted")
	}
}

func TestResultJSON(t *testing.T) {
	var m Metrics
	m.Put("latency_ms", "ms", 1.5)
	r, err := NewResult(true, 10, 0, &m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_ms":{"value":1.5,"unit":"ms"}}}`
	if string(b) != want {
		t.Errorf("JSON = %s\nwant   %s", b, want)
	}
}

func TestSplit(t *testing.T) {
	at := []int64{5, 10, 19, 20, 29, 30, 31, -1}
	got := Split(at, []int64{10, 20, 30})
	want := [][]int{{1, 2}, {3, 4}}
	if len(got) != len(want) {
		t.Fatalf("Split = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("Split = %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("Split = %v, want %v", got, want)
			}
		}
	}
	if Split(at, []int64{10}) != nil {
		t.Error("one bound made a group")
	}
}

func TestParseCPUTimes(t *testing.T) {
	stat := "cpu  100 0 50 800 5 0 10 35 7 0\ncpu0 50 0 25 400 2 0 5 18 3 0\ncpu1 50 0 25 400 3 0 5 17 4 0\nintr 1 2\n"
	for _, c := range []struct {
		cpu  int
		want CPUTimes
	}{
		{0, CPUTimes{Idle: 400, Softirq: 5, Steal: 18, Total: 500}},
		{1, CPUTimes{Idle: 400, Softirq: 5, Steal: 17, Total: 500}},
	} {
		got, err := ParseCPUTimes([]byte(stat), c.cpu)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("cpu %d: %+v, want %+v", c.cpu, got, c.want)
		}
	}
	if _, err := ParseCPUTimes([]byte(stat), 2); err == nil {
		t.Error("ParseCPUTimes found cpu2 in a two-CPU /proc/stat")
	}
	for _, bad := range []string{"", "cpu 1 2 3 4 5 6 7 8\n", "cpu0 1 2 3\n", "cpu0 1 2 3 4 5 6 7 x\n"} {
		if _, err := ParseCPUTimes([]byte(bad), 0); err == nil {
			t.Errorf("ParseCPUTimes(%q) accepted", bad)
		}
	}
}
