package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

// manifest mirrors BENCHMARK.json. "Exactly these keys" is enforced in two
// halves: decoding rejects an unknown key anywhere, and validate rejects the
// empty value a missing key leaves behind.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds *int            `json:"run_seconds"`
	Workloads  []workloadEntry `json:"workloads"`
	EndToEnd   []endToEndEntry `json:"end_to_end"`
	PerLayer   []perLayerEntry `json:"per_layer"`
}

type workloadEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndEntry struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type perLayerEntry struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

const (
	manifestMaxBytes = 64 << 10
	maxBound         = 0.25
	// The driver makes 4 + 22 × workloads runs and allows them 3420 s in
	// all, builds and set-up included.
	driverBudgetSeconds = 3420
)

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseManifest(data)
}

func parseManifest(data []byte) (*manifest, error) {
	if len(data) > manifestMaxBytes {
		return nil, fmt.Errorf("manifest is %d bytes; the limit is %d", len(data), manifestMaxBytes)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &m, nil
}

func checkBetter(list, name, better string) error {
	if better != "lower" && better != "higher" {
		return fmt.Errorf("%s %q: better is %q; want lower or higher", list, name, better)
	}
	return nil
}

// validate enforces the contract the driver checks before its first run.
func (m *manifest) validate() error {
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("%d paths; want 1 to 16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || hasDotDot(p) {
			return fmt.Errorf("path %q is not a plain relative directory", p)
		}
	}
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings; want 1 to 32", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 {
			return fmt.Errorf("command argument %q is longer than 200 characters", arg)
		}
		if strings.HasPrefix(arg, "/") || hasDotDot(arg) {
			return fmt.Errorf("command argument %q is absolute or leaves the repo", arg)
		}
		if strings.Contains(arg, "/") && !m.underPaths(arg) {
			return fmt.Errorf("command argument %q names a file outside paths %v", arg, m.Paths)
		}
	}
	if m.RunSeconds == nil || *m.RunSeconds < 1 || *m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds must be a whole number from 1 to 60")
	}

	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads; want 2 to 8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics; want 1 to 16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics; want 1 to 128", n)
	}

	seen := map[string]bool{}
	useName := func(list, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q: want a letter or digit, then at most 63 of letters, digits, _ . -", list, name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used more than once", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := useName("workload", w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %q: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		if err := useName("end_to_end", e.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(e.Unit) {
			return fmt.Errorf("end_to_end %q: bad unit %q", e.Name, e.Unit)
		}
		if err := checkBetter("end_to_end", e.Name, e.Better); err != nil {
			return err
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > maxBound {
			return fmt.Errorf("end_to_end %q: bound must be above 0 and at most %.2f", e.Name, maxBound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf(`end_to_end lacks {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
	for _, e := range m.PerLayer {
		if err := useName("per_layer", e.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(e.Unit) {
			return fmt.Errorf("per_layer %q: bad unit %q", e.Name, e.Unit)
		}
		if err := checkBetter("per_layer", e.Name, e.Better); err != nil {
			return err
		}
	}

	runs := 4 + 22*len(m.Workloads)
	if need := runs * *m.RunSeconds; need >= driverBudgetSeconds {
		return fmt.Errorf("%d runs of %d s measure for %d s; the driver allows %d s with set-up and builds",
			runs, *m.RunSeconds, need, driverBudgetSeconds)
	}
	return nil
}

// underPaths reports whether a relative file name lies in one of the
// manifest's directories.
func (m *manifest) underPaths(name string) bool {
	name = strings.TrimPrefix(name, "./")
	for _, p := range m.Paths {
		if name == p || strings.HasPrefix(name, strings.TrimSuffix(p, "/")+"/") {
			return true
		}
	}
	return false
}

func hasDotDot(p string) bool {
	for _, part := range strings.Split(p, "/") {
		if part == ".." {
			return true
		}
	}
	return false
}
