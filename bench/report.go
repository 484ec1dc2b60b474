package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// report is the full output of a run, written with -out and read by
// -compare.
type report struct {
	Host      host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Correct   bool             `json:"correct"`
	Workloads []workloadReport `json:"workloads"`
}

// host describes the machine and toolchain. CalibStartS and CalibEndS
// time the same fixed CPU loop before and after the samples; a change
// between them, or between two reports, is host drift.
type host struct {
	GoVersion       string  `json:"goVersion"`
	NumCPU          int     `json:"numCPU"`
	ChildGOMAXPROCS int     `json:"childGomaxprocs"`
	MemTotalMB      int     `json:"memTotalMB"`
	CPUModel        string  `json:"cpuModel"`
	CalibStartS     float64 `json:"calibStartS"`
	CalibEndS       float64 `json:"calibEndS"`
}

type workloadReport struct {
	Name        string             `json:"name"`
	Invocations []invocation       `json:"invocations"`
	Digest      string             `json:"digest"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Failures    []string           `json:"failures,omitempty"`
	Samples     []sample           `json:"samples"`
	Metrics     map[string]summary `json:"metrics"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Note        string             `json:"note,omitempty"`
	Spans       []span             `json:"spans,omitempty"`

	outcomes []outcome // the untraced per-job outcomes the traced pass must reproduce
}

// summary is one end-to-end metric over a workload's samples. Floor, in
// the metric's unit, is the smallest change the comparison resolves, however
// small the median: the bound applies as max(Bound × median, Floor).
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Floor  float64 `json:"floor,omitempty"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// setupFloorS is setup_s's absolute floor. A single-job workload sets up in
// a few milliseconds, where exec and runtime start-up jitter are a large
// share of the median; changes below 20 ms are not resolved there.
const setupFloorS = 0.02

// summarize computes every end-to-end metric the spec names over the
// samples that measured it, leaving out the fleetOnly metrics unless the
// workload runs several jobs.
func summarize(sp spec, samples []sample, multiJob bool) map[string]summary {
	out := map[string]summary{}
	for _, m := range sp.EndToEnd {
		xs := sampleValues(samples, m.Name)
		if len(xs) == 0 || fleetOnly[m.Name] && !multiJob {
			continue
		}
		q1, q3 := quartiles(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		sum := summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound,
			Median: median(xs), Min: s[0], Max: s[len(s)-1], Q1: q1, Q3: q3, N: len(xs)}
		if m.Name == "setup_s" {
			sum.Floor = setupFloorS
		}
		out[m.Name] = sum
	}
	return out
}

func sampleValues(samples []sample, name string) []float64 {
	var xs []float64
	for _, s := range samples {
		if v, ok := s.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default exclusive method), so
// spreads computed here and by external tooling agree. A single value is
// its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// printTable writes every end-to-end metric of every workload with its
// unit, median, range and sample count, then each workload's layers.
func printTable(w io.Writer, rep *report) {
	fmt.Fprintf(w, "host: %s, %d CPUs (children at GOMAXPROCS=%d), %d MB, %s; calibration %.4fs -> %.4fs\n",
		rep.Host.GoVersion, rep.Host.NumCPU, rep.Host.ChildGOMAXPROCS, rep.Host.MemTotalMB, rep.Host.CPUModel,
		rep.Host.CalibStartS, rep.Host.CalibEndS)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: seed %d, %d samples, digest %s, %d of %d jobs failed\n",
			wr.Name, rep.Seed, len(wr.Samples), wr.Digest, wr.Failed, wr.Attempted)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAIL %s\n", f)
		}
		fmt.Fprintf(w, "  %-20s %-6s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
		for _, name := range sortedKeys(wr.Metrics) {
			s := wr.Metrics[name]
			fmt.Fprintf(w, "  %-20s %-6s %14.6g %14.6g %14.6g %3d\n", name, s.Unit, s.Median, s.Min, s.Max, s.N)
		}
		if len(wr.Layers) == 0 {
			continue
		}
		fmt.Fprintf(w, "  layers (traced pass)")
		if wr.Note != "" {
			fmt.Fprintf(w, ": %s", wr.Note)
		}
		fmt.Fprintln(w)
		for _, name := range sortedKeys(wr.Layers) {
			fmt.Fprintf(w, "  %-28s %-6s %14.6g\n", name, layerUnits[name], wr.Layers[name])
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// result is the one-line summary a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the single-workload result line: the median over the
// samples of every end-to-end metric (fleetOnly ones included), or with
// trace every per-layer metric.
func printResult(w io.Writer, sp spec, rep *report, trace bool) error {
	wr := rep.Workloads[0]
	res := result{Correct: rep.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]resultValue{}}
	if trace {
		for _, m := range sp.PerLayer {
			res.Metrics[m.Name] = resultValue{Value: wr.Layers[m.Name], Unit: m.Unit}
		}
	} else {
		for _, m := range sp.EndToEnd {
			res.Metrics[m.Name] = resultValue{Value: median(sampleValues(wr.Samples, m.Name)), Unit: m.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Labels of a (workload, end-to-end metric) comparison.
const (
	better     = "better"
	worse      = "worse"
	equivalent = "equivalent"
	unresolved = "unresolved"
)

// label compares one metric's samples. change is the head median's
// worsening over the base median as a share of the base median (negative
// when head is better). The tolerance is the bound, raised to floor (in
// the metric's unit) over the base median when that is larger. When either
// side's interquartile spread exceeds the tolerance, the samples cannot
// resolve a change of that size: the pair is unresolved unless every head
// sample beats every base sample. Otherwise a change beyond the tolerance
// is worse or better, and anything within it is equivalent.
func label(base, head []float64, bound, floor float64, higherBetter bool) (lbl string, change float64) {
	bm, hm := median(base), median(head)
	if bm == 0 {
		return unresolved, 0
	}
	change = (hm - bm) / math.Abs(bm)
	if higherBetter {
		change = -change
	}
	tol := max(bound, floor/math.Abs(bm))
	switch {
	case max(spread(base), spread(head)) > tol:
		if allAhead(head, base, higherBetter) {
			return better, change
		}
		return unresolved, change
	case change > tol:
		return worse, change
	case change < -tol:
		return better, change
	}
	return equivalent, change
}

// allAhead reports whether every head sample beats every base sample.
func allAhead(head, base []float64, higherBetter bool) bool {
	if len(head) == 0 || len(base) == 0 {
		return false
	}
	hs, bs := append([]float64(nil), head...), append([]float64(nil), base...)
	sort.Float64s(hs)
	sort.Float64s(bs)
	if higherBetter {
		return hs[0] > bs[len(bs)-1]
	}
	return hs[len(hs)-1] < bs[0]
}

// hostDriftLimit is the calibration change between two reports above
// which their hosts are flagged as not comparable.
const hostDriftLimit = 0.05

// compareReports labels every (workload, end-to-end metric) pair of two
// reports, using the base report's bounds, and flags host drift. Failed
// jobs are compared with a zero bound.
func compareReports(w io.Writer, base, head *report) {
	drift := func(r *report) float64 { return (r.Host.CalibStartS + r.Host.CalibEndS) / 2 }
	if b, h := drift(base), drift(head); b > 0 && h > 0 {
		d := h/b - 1
		flag := ""
		if math.Abs(d) > hostDriftLimit {
			flag = "  HOST DRIFT: timings are not directly comparable"
		}
		fmt.Fprintf(w, "calibration: base %.4fs, head %.4fs (%+.1f%%)%s\n", b, h, 100*d, flag)
	}
	if base.Host.CPUModel != head.Host.CPUModel || base.Host.NumCPU != head.Host.NumCPU {
		fmt.Fprintf(w, "host differs: base %d x %s, head %d x %s\n",
			base.Host.NumCPU, base.Host.CPUModel, head.Host.NumCPU, head.Host.CPUModel)
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %8s %7s %6s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "label")
	for _, bw := range base.Workloads {
		var hw *workloadReport
		for i := range head.Workloads {
			if head.Workloads[i].Name == bw.Name {
				hw = &head.Workloads[i]
			}
		}
		if hw == nil {
			fmt.Fprintf(w, "%-12s missing from head\n", bw.Name)
			continue
		}
		for _, name := range sortedKeys(bw.Metrics) {
			bs := bw.Metrics[name]
			hs, ok := hw.Metrics[name]
			if !ok {
				fmt.Fprintf(w, "%-12s %-20s missing from head\n", bw.Name, name)
				continue
			}
			bv, hv := sampleValues(bw.Samples, name), sampleValues(hw.Samples, name)
			lbl, change := label(bv, hv, bs.Bound, bs.Floor, bs.Better == "higher")
			tol := max(bs.Bound, bs.Floor/math.Abs(bs.Median))
			fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n", bw.Name, name,
				bs.Median, hs.Median, 100*change, 100*max(spread(bv), spread(hv)), 100*tol, lbl)
		}
		bf, hf := frac(bw.Failed, bw.Attempted), frac(hw.Failed, hw.Attempted)
		lbl := equivalent
		if hf > bf {
			lbl = worse
		} else if hf < bf {
			lbl = better
		}
		fmt.Fprintf(w, "%-12s %-20s %14.6g %14.6g %8s %7s %5.0f%%  %s\n", bw.Name, "failed_frac", bf, hf, "", "", 0.0, lbl)
	}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
