package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// record is one line of an -out file: a run's result with what produced it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords returns the values of each end-to-end metric per workload:
// values[workload][metric] has one entry per untraced run in the file.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if r.Trace != 0 || r.Result == nil {
			continue
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s line %d: %s seed %d had %d failed operations; a failing run has no timings to compare",
				path, n, r.Workload, r.Seed, r.Result.Failed)
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
		}
	}
	return values, sc.Err()
}

// verdict judges B's median against A's for one metric of one workload,
// given A's quartiles.
func verdict(q1A, medA, q3A, medB, bound float64, lowerBetter bool) string {
	if medA == 0 {
		return "unresolved"
	}
	worse := (medB - medA) / medA // share of A's median by which B is worse
	if !lowerBetter {
		worse = -worse
	}
	switch {
	case (q3A-q1A)/medA > bound:
		// A's own runs disagree by more than the bound, so a difference of
		// the bound's size cannot be told from noise.
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) and returns
// an error if any row is not ok.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) error {
	m, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tB/A\tbound\tverdict")
	bad := 0
	for _, wl := range m.Workloads {
		for _, e := range m.EndToEnd {
			va, vb := a[wl.Name][e.Name], b[wl.Name][e.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(n=%d)\t(n=%d)\t\t\tmissing\n", wl.Name, e.Name, e.Unit, len(va), len(vb))
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := verdict(a1, a2, a3, b2, *e.Bound, e.Better == "lower")
			if v != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g] (%d)\t%.5g [%.5g, %.5g] (%d)\t%.4f of %.5g\t%.2f\t%s\n",
				wl.Name, e.Name, e.Unit, a2, a1, a3, len(va), b2, b1, b3, len(vb), b2/a2, a2, *e.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d rows are not ok", bad)
	}
	return nil
}
