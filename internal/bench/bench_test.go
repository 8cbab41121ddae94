package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"eva/internal/apps"
	"eva/internal/nn"
)

// tinyOptions keeps the harness tests fast: the smallest network
// configuration on two workers.
func tinyOptions() Options {
	o := DefaultOptions()
	o.Config = nn.Config{InputSize: 4, ChannelDivisor: 64}
	o.Workers = 2
	return o
}

var tiny struct {
	once sync.Once
	res  *NetworkResult
	err  error
}

// tinyNetwork runs LeNet-5-small once at tinyOptions, on two workers and at
// the scaling points 1 and 2, for every test that reads a network run.
func tinyNetwork(t *testing.T) *NetworkResult {
	t.Helper()
	tiny.once.Do(func() {
		tiny.res, tiny.err = RunNetwork(nn.LeNet5Small(tinyOptions().Config), tinyOptions(), []int{1, 2})
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.res
}

func TestRunNetworkProducesConsistentMeasurements(t *testing.T) {
	res := tinyNetwork(t)
	for _, pr := range []*PipelineResult{res.EVA, res.CHET} {
		if pr.CompileTime <= 0 || pr.ContextTime <= 0 || pr.Latency[res.Workers] <= 0 {
			t.Errorf("%s: missing timings %+v", pr.Name, pr)
		}
		if got := len(pr.Outputs["scores"]); got < res.Network.NumClasses {
			t.Errorf("%s: %d scores, want at least %d", pr.Name, got, res.Network.NumClasses)
		}
		if !res.Agrees(pr) {
			t.Errorf("%s: encrypted classification disagrees with the reference (max err %g)", pr.Name, pr.MaxError)
		}
	}
	// Table 6 is at 128-bit security, not the insecure parameters the runs use.
	for _, p := range []Params{res.EVAParams, res.CHETParams} {
		if p.Primes < 2 || p.LogQP <= 0 || p.LogN < 14 || p.Cost <= 0 {
			t.Errorf("implausible 128-bit parameters %+v", p)
		}
	}
	if res.Speedup() <= 0 {
		t.Error("speedup should be positive")
	}
}

func TestRunApplicationAndScaling(t *testing.T) {
	app, err := apps.LinearRegression(16)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := RunApplication(app, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ares.Run.Latency[1] <= 0 || ares.Run.MaxError > 1e-2 {
		t.Errorf("implausible application result %+v", ares.Run)
	}

	// The Table 5 run on two workers is also Figure 7's 2-thread point.
	res := tinyNetwork(t)
	for _, pr := range []*PipelineResult{res.EVA, res.CHET} {
		if len(pr.Latency) != 2 || pr.Latency[1] <= 0 || pr.Latency[2] <= 0 {
			t.Errorf("%s: want one run at 1 and one at 2 threads, got %v", pr.Name, pr.Latency)
		}
	}
}

func TestTablePrinters(t *testing.T) {
	results := []*NetworkResult{tinyNetwork(t)}

	var buf bytes.Buffer
	PrintTable3(&buf, []*nn.Network{results[0].Network})
	PrintTable4(&buf, results)
	PrintTable5(&buf, results)
	PrintTable6(&buf, results)
	PrintTable7(&buf, results)
	out := buf.String()
	for _, want := range []string{"Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "LeNet-5-small", "Speedup", "on 2 threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}

	app, err := apps.LinearRegression(16)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := RunApplication(app, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintTable8(&buf, []*AppResult{ares})
	if !strings.Contains(buf.String(), "Linear Regression") {
		t.Error("Table 8 output missing the application name")
	}

	buf.Reset()
	PrintFigure7(&buf, results, []int{2, 1})
	out = buf.String()
	one, two := strings.Index(out, "1 thr"), strings.Index(out, "2 thr")
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "EVA") || one < 0 || two < one {
		t.Errorf("Figure 7 output incomplete or its thread counts unsorted:\n%s", out)
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	n := o.normalize()
	if n.Workers <= 0 || n.Config.InputSize == 0 {
		t.Errorf("normalize produced %+v", n)
	}
}
