package main

import (
	"io"
	"strconv"
	"strings"
	"testing"
)

// TestRunTable3 is the smoke test for the cheapest table: the network
// inventory needs no encrypted execution, so it exercises the full
// flag-parsing and printing path in milliseconds.
func TestRunTable3(t *testing.T) {
	var out, errOut strings.Builder
	if err := run([]string{"-table", "3"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Table 3", "LeNet-5-small", "SqueezeNet-CIFAR"} {
		if !strings.Contains(got, want) {
			t.Errorf("table 3 output missing %q:\n%s", want, got)
		}
	}

	// -networks selects Table 3's rows too.
	out.Reset()
	if err := run([]string{"-table", "3", "-networks", "LeNet-5-small"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if rows := tableRows(out.String(), "Table 3"); len(rows) != 1 || rows[0][0] != "LeNet-5-small" {
		t.Errorf("-networks LeNet-5-small: want one Table 3 row, got %q", rows)
	}
}

// TestRunTable6 checks that Table 6 reports parameters at 128-bit security,
// the paper's setting (logN 14-16), not the insecure ones of the scaled-down
// runs, and that the claims block follows it.
func TestRunTable6(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "6", "-networks", "LeNet-5-small"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(out.String(), "Table 6")
	if len(rows) != 1 || len(rows[0]) < 7 {
		t.Fatalf("want one Table 6 row, got %q", rows)
	}
	for _, col := range []int{1, 4} { // CHET logN, EVA logN
		if logN, err := strconv.Atoi(rows[0][col]); err != nil || logN < 14 {
			t.Errorf("Table 6 logN column %d = %q, want >= 14:\n%s", col, rows[0][col], out.String())
		}
	}
	if !strings.Contains(out.String(), "Claims") || strings.Contains(out.String(), "FAIL") {
		t.Errorf("want a passing claims block after Table 6:\n%s", out.String())
	}
}

// tableRows returns the whitespace-separated fields of the data rows of the
// table whose title starts with title: the lines after its header, up to the
// blank line that ends it.
func tableRows(out, title string) [][]string {
	lines := strings.Split(out[strings.Index(out, title):], "\n")
	var rows [][]string
	for _, line := range lines[2:] {
		if line == "" {
			break
		}
		rows = append(rows, strings.Fields(line))
	}
	return rows
}

// TestRunTable8 runs the application suite end to end (encrypted execution
// included) on tiny instances, checking one full row renders.
func TestRunTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("encrypted execution in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"-table", "8", "-vec", "64", "-image", "4"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 8") {
		t.Errorf("missing Table 8 header:\n%s", out.String())
	}
}

func TestRunNoArgsErrors(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(nil, &out, &errOut); err == nil {
		t.Fatal("expected an error when no table or figure is selected")
	}
	if !strings.Contains(errOut.String(), "Usage") && !strings.Contains(errOut.String(), "-table") {
		t.Errorf("usage not printed to stderr:\n%s", errOut.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard, io.Discard); err == nil {
		t.Error("expected an error for an unknown flag")
	}
	if err := run([]string{"-figure", "7", "-threads", "0,banana"}, io.Discard, io.Discard); err == nil {
		t.Error("expected an error for a bad thread count")
	}
	if err := run([]string{"-table", "3", "-networks", "no-such-net"}, io.Discard, io.Discard); err == nil {
		t.Error("expected an error for an unmatched network filter")
	}
}
