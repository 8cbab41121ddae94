package bench

import (
	"strings"
	"testing"
	"time"

	"eva/internal/apps"
	"eva/internal/nn"
)

// TestPaperClaims checks the paper's machine-independent claims on real
// results: T6 and T5 cost at 128-bit security on all five BenchConfig
// networks, T4 on encrypted runs of LeNet-5-small and Industrial, and T8 on
// small instances of every application. T5 measured compares wall times, so
// only evabench checks it.
func TestPaperClaims(t *testing.T) {
	var nets []*NetworkResult
	for _, n := range nn.All(nn.BenchConfig()) {
		r, err := CompileNetwork(n, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, r)
	}
	small := DefaultOptions()
	small.Config = nn.Config{InputSize: 8, ChannelDivisor: 8}
	small.Workers = 2
	for _, n := range []*nn.Network{nn.LeNet5Small(small.Config), nn.Industrial(small.Config)} {
		r, err := RunNetwork(n, small, nil)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, r)
	}
	suite, err := apps.Suite(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	var appResults []*AppResult
	for _, app := range suite {
		r, err := RunApplication(app, small)
		if err != nil {
			t.Fatal(err)
		}
		appResults = append(appResults, r)
	}

	checked := map[string]int{}
	for _, c := range Claims(nets, appResults) {
		if c.ID == "T5 measured" {
			continue
		}
		checked[c.ID]++
		if !c.OK {
			t.Errorf("claim %s fails on %s: %s", c.ID, c.Subject, c.Detail)
		}
	}
	want := map[string]int{"T6": len(nets), "T5 cost": len(nets), "T4": 2, "T8": len(suite)}
	for id, n := range want {
		if checked[id] != n {
			t.Errorf("claim %s checked %d times, want %d", id, checked[id], n)
		}
	}
}

// passingResults fabricates one network and one application that satisfy
// every claim.
func passingResults() (*NetworkResult, *AppResult) {
	net := &NetworkResult{
		Network:    &nn.Network{Name: "net-a", NumClasses: 2},
		EVAParams:  Params{LogN: 15, LogQP: 580, Primes: 10, Cost: 1},
		CHETParams: Params{LogN: 16, LogQP: 1470, Primes: 25, Cost: 5},
		Workers:    2,
		Reference:  []float64{0.5, 0.505},
		EVA: &PipelineResult{Name: "EVA", Latency: map[int]time.Duration{2: time.Second},
			Outputs: map[string][]float64{"scores": {0.5, 0.505}}},
		CHET: &PipelineResult{Name: "CHET", Latency: map[int]time.Duration{2: 3 * time.Second},
			Outputs: map[string][]float64{"scores": {0.5, 0.505}}},
	}
	app := &AppResult{App: &apps.App{Name: "app-a"}, Run: &PipelineResult{MaxError: 1e-4}}
	return net, app
}

// TestClaimsCanFail breaks each claim in turn and requires exactly that claim
// to fail, naming the network or application it failed on.
func TestClaimsCanFail(t *testing.T) {
	net, app := passingResults()
	for _, c := range Claims([]*NetworkResult{net}, []*AppResult{app}) {
		if !c.OK {
			t.Fatalf("fabricated passing results fail %s: %s", c.ID, c.Detail)
		}
	}
	for _, tc := range []struct {
		id, subject string
		breakIt     func(*NetworkResult, *AppResult)
	}{
		{"T6", "net-a", func(n *NetworkResult, _ *AppResult) { n.CHETParams.LogQP = 500 }},
		{"T6", "net-a", func(n *NetworkResult, _ *AppResult) { n.EVAParams.LogN = 17 }},
		{"T5 cost", "net-a", func(n *NetworkResult, _ *AppResult) { n.CHETParams.Cost = 0.5 }},
		{"T5 measured", "net-a", func(n *NetworkResult, _ *AppResult) { n.CHET.Latency[2] = time.Millisecond }},
		// Within the score tolerance, but the classes swap.
		{"T4", "net-a", func(n *NetworkResult, _ *AppResult) { n.EVA.Outputs["scores"] = []float64{0.505, 0.5} }},
		{"T4", "net-a", func(n *NetworkResult, _ *AppResult) { n.CHET.MaxError = 3e-2 }},
		{"T8", "app-a", func(_ *NetworkResult, a *AppResult) { a.Run.MaxError = 6e-2 }},
	} {
		net, app := passingResults()
		tc.breakIt(net, app)
		var failed []Claim
		for _, c := range Claims([]*NetworkResult{net}, []*AppResult{app}) {
			if !c.OK {
				failed = append(failed, c)
			}
		}
		if len(failed) != 1 || failed[0].ID != tc.id || failed[0].Subject != tc.subject {
			t.Errorf("breaking %s on %s: failing claims %+v", tc.id, tc.subject, failed)
		}
		var out strings.Builder
		if n := PrintClaims(&out, failed); n != 1 || !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), tc.subject) {
			t.Errorf("PrintClaims returned %d failures:\n%s", n, out.String())
		}
	}
}
